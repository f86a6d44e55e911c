"""The :class:`Target` protocol and registry.

A target bundles everything needed to take a workload (or an explicit
schedule) to something executable/measurable on one of the paper's four
evaluation systems: a hardware/model configuration, a performance model,
and — where the backend supports it — a functional executor.  Registered kinds:

========== ==========================================================
kind       system
========== ==========================================================
upmem      simulated UPMEM machine (full compile + functional run)
prim       PrIM hand-written baselines (default / E / +search variants)
simplepim  SimplePIM framework baseline (VA / GEVA / RED)
cpu        TVM-autotuned CPU roofline (functional run via numpy)
gpu        A5000-class GPU roofline (functional run via numpy)
hbm-pim    Aquabolt-XL MAC-accelerator feasibility estimate (§8)
========== ==========================================================

``get_target("upmem")`` returns a fresh default-configured instance;
construct targets directly (``UpmemTarget(config=...)``) for custom
configurations.  New backends register with :func:`register_target`
instead of forking the driver layer.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..upmem.config import DEFAULT_CONFIG

__all__ = [
    "Target",
    "TargetError",
    "register_target",
    "get_target",
    "has_target",
    "list_targets",
]


class TargetError(RuntimeError):
    """A target cannot compile or execute the requested program."""


class Target(abc.ABC):
    """One backend the front door can compile for.

    Subclasses set :attr:`kind` (the registry key) and implement
    :meth:`compile`.  :meth:`measure` makes a target usable as the
    measurement side of the autotuner, enabling cross-target tuning.
    """

    #: Registry key, e.g. ``"upmem"``.
    kind: str = ""
    # -- identity -----------------------------------------------------------
    @property
    def label(self) -> str:
        """Column label used by the experiment harness (``fig9`` etc.)."""
        return self.kind.replace("-", "_")

    def cache_token(self) -> Optional[str]:
        """Compile-relevant identity mixed into artifact-cache keys.

        ``None`` (the default) means this target's compilation is fully
        determined by inputs already in the key — workload, params,
        hardware config and opt level — so its artifacts
        may share cache entries with any other caller producing the same
        module (e.g. the UPMEM target and the PrIM baselines' grid
        search).  Override to return a stable token when a target
        alters compilation *beyond* those knobs, so its artifacts never
        alias ones it would compile differently.
        """
        return None

    def identity(self) -> Tuple[str, str, Optional[str]]:
        """(kind, config repr, cache token): what cache, pool and graph
        keys hold of a target — kind alone would alias differently
        configured instances of one backend."""
        return (self.kind, repr(getattr(self, "config", None)), self.cache_token())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(kind={self.kind!r})"

    # -- capabilities -------------------------------------------------------
    def supports(self, workload: Any) -> bool:
        """Whether :meth:`compile` can handle this workload."""
        return True

    # -- compilation --------------------------------------------------------
    @abc.abstractmethod
    def compile(
        self,
        workload_or_schedule: Any,
        opt_level: str = "O3",
        params: Optional[Dict[str, int]] = None,
        **hints: Any,
    ) -> "Executable":
        """Compile a workload or schedule into an :class:`Executable`.

        ``hints`` carries target-specific extras (e.g. ``size=`` for the
        PrIM parameter tables, ``total_macs=`` for HBM-PIM schedules);
        targets ignore hints they do not understand, so generic drivers
        can pass one kwarg set to every target.
        """

    # -- tuning support -----------------------------------------------------
    def measure(self, module: Any, workload: Any) -> float:
        """Latency (seconds) of a compiled module on this target.

        Used by the autotuner to score candidates; the default raises so
        analytic-only targets opt in explicitly.
        """
        raise TargetError(f"target {self.kind!r} cannot measure modules")

    @property
    def search_config(self):
        """The :class:`~repro.upmem.UpmemConfig` bounding the sketch
        space when tuning for this target (the UPMEM grid is the shared
        scheduling substrate; non-UPMEM targets tune over the default
        grid)."""
        return DEFAULT_CONFIG


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_TARGETS: Dict[str, Callable[[], Target]] = {}


def register_target(
    kind: str, factory: Callable[[], Target], overwrite: bool = False
) -> None:
    """Register a target factory under ``kind``; refuses silent clobbering."""
    if kind in _TARGETS and not overwrite:
        raise TargetError(f"target {kind!r} is already registered")
    _TARGETS[kind] = factory


def get_target(spec: Union[str, Target]) -> Target:
    """Resolve a target spec: instances pass through, strings construct a
    fresh default-configured instance of the registered kind."""
    if isinstance(spec, Target):
        return spec
    try:
        factory = _TARGETS[spec]
    except (KeyError, TypeError):
        raise TargetError(
            f"unknown target {spec!r}; registered: {list_targets()}"
        ) from None
    return factory()


def has_target(kind: str) -> bool:
    return kind in _TARGETS


def list_targets() -> List[str]:
    """Registered target kinds, sorted."""
    return sorted(_TARGETS)
