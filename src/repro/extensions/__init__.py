"""Backend extension sketches beyond UPMEM (paper §8).

An extension is a performance model over the module the shared
``build`` pipeline lowers; :class:`repro.target.HbmPimTarget` is the
front end of the one here.
"""

from .hbm_pim import HbmPimConfig, HbmPimEstimate, HbmPimEstimator

__all__ = ["HbmPimConfig", "HbmPimEstimate", "HbmPimEstimator"]
