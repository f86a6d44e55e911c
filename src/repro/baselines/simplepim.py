"""SimplePIM baseline (Chen et al., PACT 2023) — VA and RED only.

SimplePIM's map/reduce framework is reproduced as a schedule plus its
documented framework overheads (paper §7.1):

* **VA/GEVA (map)**: the handler-based runtime gathers the *entire* output
  tensor on the host with a full-size copy on the host side, making D2H
  4–11× more expensive than PrIM/ATiM.
* **RED (reduce)**: one partial per DPU is transferred (efficient), but
  each partial-reduction step synchronizes all tasklets with a global
  barrier (log2(T) rounds) instead of PrIM/ATiM's two-thread handshake,
  and the host final reduction pays per-element library-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Tuple

from ..autotune.compile import default_engine
from ..autotune.sketch import family_of, fixed_params
from ..lowering import LoweredModule
from ..upmem.config import DEFAULT_CONFIG, UpmemConfig
from ..upmem.system import PerformanceModel, ProfileResult
from ..workloads import Workload

__all__ = ["simplepim_build", "SIMPLEPIM_WORKLOADS"]

SIMPLEPIM_WORKLOADS = ("va", "geva", "red")

#: SimplePIM handler defaults.
_TASKLETS = 16
_CACHE = 256
#: Host-side overhead per output element for the framework's extra copy.
_HOST_COPY_BANDWIDTH = 3.0e9
#: Overhead of the host final reduction's internal library calls (s/elem).
_HOST_REDUCE_OVERHEAD = 4.0e-8


def simplepim_build(
    workload: Workload, config: Optional[UpmemConfig] = None
) -> Tuple[LoweredModule, ProfileResult]:
    """The SimplePIM implementation of a workload: the compiled module
    (its structure matches the framework's handlers) plus the latency
    profile with the documented framework overheads applied."""
    if workload.name not in SIMPLEPIM_WORKLOADS:
        raise KeyError(
            f"SimplePIM provides only {SIMPLEPIM_WORKLOADS}, not"
            f" {workload.name!r}"
        )
    cfg = config or DEFAULT_CONFIG
    # The framework has two handlers: reduce (1024 DPUs, one value per
    # DPU) and map over a distributed spatial axis (the whole machine).
    reduces = not family_of(workload).dpu_axes
    if reduces:
        params = fixed_params(workload, [1024], _TASKLETS, _CACHE, dpu_combine=1)
    else:
        params = fixed_params(workload, [cfg.n_dpus], _TASKLETS, _CACHE)
    artifact = default_engine().compile(workload, params, config=cfg)
    if not artifact.verified:
        raise RuntimeError(
            f"SimplePIM handler parameters invalid for {workload.name}:"
            f" {artifact.error or artifact.verify_reason}"
        )
    module = artifact.module
    prof = PerformanceModel(cfg).profile(module)
    if not reduces:
        # Whole-tensor host-side copy after D2H (the framework gathers and
        # re-materializes the full output array).
        extra_d2h = workload.bytes_out / _HOST_COPY_BANDWIDTH
        latency = replace(prof.latency, d2h=prof.latency.d2h + extra_d2h)
    else:
        # Global-barrier tree reduction on the DPU and call-heavy host
        # reduction.
        barrier_rounds = math.ceil(math.log2(_TASKLETS))
        extra_kernel = (
            barrier_rounds * _TASKLETS * cfg.barrier_cycles * cfg.cycle_time_s
        )
        extra_host = module.n_dpus * _HOST_REDUCE_OVERHEAD
        latency = replace(
            prof.latency,
            kernel=prof.latency.kernel + extra_kernel,
            host=prof.latency.host + extra_host,
        )
    return module, replace(prof, latency=latency)
