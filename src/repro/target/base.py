"""The :class:`Target` protocol.

A target bundles everything needed to take a workload (or an explicit
schedule) to something executable/measurable on one of the paper's four
evaluation systems: a hardware/model configuration, a performance model,
and — where the backend supports it — a functional executor.  The four
kinds, which :func:`repro.target.get_target` resolves:

========== ==========================================================
kind       system
========== ==========================================================
upmem      simulated UPMEM machine (full compile + functional run)
prim       PrIM hand-written baselines (default / E / +search variants)
simplepim  SimplePIM framework baseline (VA / GEVA / RED)
cpu        TVM-autotuned CPU roofline (functional run via numpy)
========== ==========================================================

``get_target("upmem")`` returns a fresh default-configured instance;
construct targets directly (``UpmemTarget(config=...)``) for custom
configurations.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Tuple

__all__ = ["Target", "TargetError"]


class TargetError(RuntimeError):
    """A target cannot compile or execute the requested program."""


class Target(abc.ABC):
    """One backend the front door can compile for.

    Subclasses set :attr:`kind` (the table key) and implement
    :meth:`compile`.
    """

    #: Table key, e.g. ``"upmem"``.
    kind: str = ""
    # -- identity -----------------------------------------------------------
    @property
    def label(self) -> str:
        """Column label used by the experiment harness (``fig9`` etc.)."""
        return self.kind

    def identity(self) -> Tuple[str, str]:
        """(kind, config repr): what a pool key holds of a
        target — kind alone would alias differently configured
        instances of one backend."""
        return (self.kind, repr(self.config))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(kind={self.kind!r})"

    # -- capabilities -------------------------------------------------------
    @abc.abstractmethod
    def supports(self, workload: Any) -> bool:
        """Whether :meth:`compile` can handle this workload."""

    # -- compilation --------------------------------------------------------
    @abc.abstractmethod
    def compile(
        self,
        workload_or_schedule: Any,
        opt_level: str = "O3",
        params: Optional[Dict[str, int]] = None,
    ) -> "Executable":
        """Compile a workload or schedule into an :class:`Executable`.

        Every target takes these three arguments, so generic drivers
        (the serving pool, ``harness.compare_targets``) call any of them
        alike; a target adds only the keywords it reads (``size=`` on
        prim, ``name=``/``options=`` on upmem), and any other keyword
        raises ``TypeError``.
        """
