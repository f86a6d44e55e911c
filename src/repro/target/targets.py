"""The four built-in targets (paper §6: evaluated systems).

All module-compiling targets share the UPMEM scheduling substrate — PrIM
and SimplePIM baselines are *structural* reproductions as schedules — so
they compile through the same ``build`` pipeline and differ in parameter
choice and performance model.  The CPU target is a roofline with numpy
functional execution (Fig. 4's GPU roofline, which no graph or request
compiles for, is read as :class:`~repro.baselines.cpu.GpuModel`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..autotune.compile import default_engine
from ..autotune.sketch import family_of, param_space, seed_params
from ..baselines.cpu import CpuModel
from ..baselines.prim import prim_params, prim_search
from ..baselines.simplepim import SIMPLEPIM_WORKLOADS, simplepim_build
from ..lowering import LowerOptions
from ..optim import check_level
from ..pipeline import PassContext, build
from ..schedule import Schedule
from ..upmem.config import DEFAULT_CONFIG, UpmemConfig
from ..upmem.system import PerformanceModel
from ..workloads import Workload
from .base import Target, TargetError
from .executable import Executable, RooflineExecutable, UpmemExecutable

__all__ = [
    "UpmemTarget",
    "PrimTarget",
    "SimplePimTarget",
    "CpuTarget",
    "default_params",
    "get_target",
    "list_targets",
]


def default_params(
    workload: Workload, config: Optional[UpmemConfig] = None
) -> Dict[str, int]:
    """A sensible un-tuned parameter setting for a workload: the primary
    sketch seed (max-parallelism plain candidate) the tuner would measure
    first."""
    cfg = config or DEFAULT_CONFIG
    space = param_space(workload, max_dpus=cfg.n_dpus)
    return seed_params(space, cfg.n_dpus)[0]


def _fixed_structure_level(kind: str, opt_level: str) -> None:
    """prim and simplepim reproduce one hand-written structure, built
    at O3: another level would silently return the O3 module."""
    check_level(opt_level)
    if opt_level != "O3":
        raise TargetError(
            f"the {kind} target compiles its fixed structure at O3,"
            f" not {opt_level}"
        )


class UpmemTarget(Target):
    """The simulated UPMEM machine — ATiM's primary backend.

    Compiles schedules and workloads through the ``build`` pipeline
    (lowering + the §5.3 passes); workloads without explicit ``params``
    get the sketch defaults (run the autotuner for tuned parameters).

    With an explicit schedule, ``options`` takes the
    :class:`repro.lowering.LowerOptions` to lower it under and ``name``
    the module's name; a workload lowers under the defaults, so either
    with a workload raises :class:`TargetError`.
    """

    kind = "upmem"

    def __init__(self, config: Optional[UpmemConfig] = None) -> None:
        self.config = config or DEFAULT_CONFIG

    def supports(self, workload: Workload) -> bool:
        if not isinstance(workload, Workload):
            return False
        try:
            family_of(workload)
        except (KeyError, ValueError):
            return False
        return True

    def compile(
        self,
        workload_or_schedule: Any,
        opt_level: str = "O3",
        params: Optional[Dict[str, int]] = None,
        name: Optional[str] = None,
        options: Optional[LowerOptions] = None,
    ) -> Executable:
        if isinstance(workload_or_schedule, Schedule):
            ctx = PassContext(
                opt_level=opt_level,
                options=options or LowerOptions(),
                module_name=name or "main",
            )
            lowered = build.run(workload_or_schedule, ctx)
            return UpmemExecutable(lowered, self, params=params)
        workload = workload_or_schedule
        if name is not None or options is not None:
            raise TargetError(
                "name= and options= apply to an explicit schedule; a"
                f" workload ({workload.name}) compiles under the defaults"
            )
        params = params or default_params(workload, self.config)
        artifact = default_engine().compile(
            workload, params, opt_level=opt_level, config=self.config
        )
        if not artifact.ok:
            # Refused before a module existed: by the sketch, by
            # lowering, or for a grid of more DPUs than the machine has.
            raise TargetError(
                f"invalid params {params} for {workload.name}:"
                f" {artifact.error}"
            )
        if not artifact.verified:
            raise TargetError(
                f"params {params} violate hardware constraints for"
                f" {workload.name}: {artifact.verify_reason}"
            )
        return UpmemExecutable(artifact.module, self, workload, params)

    def measure(self, module: Any) -> float:
        """Latency (seconds) of a lowered module on this machine: what
        the autotuner scores a candidate with."""
        return PerformanceModel(self.config).profile(module).latency.total


class PrimTarget(Target):
    """PrIM hand-written baselines, reproduced structurally (§6).

    ``variant`` selects the paper's three configurations: ``"default"``
    (documented PrIM parameters), ``"e"`` (DPU count grid-searched) and
    ``"search"`` (DPUs x tasklets x caching tile grid-searched, still
    1-D tiling).
    """

    kind = "prim"
    VARIANTS = ("default", "e", "search")

    def __init__(
        self,
        variant: str = "default",
        config: Optional[UpmemConfig] = None,
    ) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(
                f"variant must be one of {self.VARIANTS}, got {variant!r}"
            )
        self.variant = variant
        self.config = config or DEFAULT_CONFIG

    @property
    def label(self) -> str:
        return "prim" if self.variant == "default" else f"prim_{self.variant}"

    def supports(self, workload: Workload) -> bool:
        if not isinstance(workload, Workload):
            return False
        try:
            prim_params(workload)
        except KeyError:
            return False
        return True

    def params_for(
        self, workload: Workload, size: Optional[str] = None
    ) -> Dict[str, int]:
        """The variant's parameter choice, without compiling where
        possible: the default variant is a table lookup; the searched
        variants inherently profile candidates to pick a winner."""
        if self.variant == "default":
            return prim_params(workload, size=size)
        return self.compile(workload).params

    def compile(
        self,
        workload_or_schedule: Any,
        opt_level: str = "O3",
        params: Optional[Dict[str, int]] = None,
        size: Optional[str] = None,
    ) -> Executable:
        if isinstance(workload_or_schedule, Schedule):
            raise TargetError(
                "the prim target reproduces fixed kernel structures; compile"
                " a Workload (explicit schedules belong on target='upmem')"
            )
        _fixed_structure_level(self.kind, opt_level)
        workload = workload_or_schedule
        profile_override = None
        if self.variant == "default":
            params = params or prim_params(workload, size=size)
        else:
            profile_override, params = prim_search(
                workload, self.variant, self.config
            )
        artifact = default_engine().compile(
            workload, params, config=self.config
        )
        if not artifact.verified:
            raise TargetError(
                f"PrIM baseline parameters invalid for {workload.name}:"
                f" {params}"
            )
        return UpmemExecutable(
            artifact.module, self, workload, params, profile_override
        )


class SimplePimTarget(Target):
    """SimplePIM framework baseline (Chen et al., PACT 2023): VA / GEVA /
    RED with the framework's documented handler overheads."""

    kind = "simplepim"

    def __init__(self, config: Optional[UpmemConfig] = None) -> None:
        self.config = config or DEFAULT_CONFIG

    def supports(self, workload: Workload) -> bool:
        return (
            isinstance(workload, Workload)
            and workload.name in SIMPLEPIM_WORKLOADS
        )

    def compile(
        self,
        workload_or_schedule: Any,
        opt_level: str = "O3",
        params: Optional[Dict[str, int]] = None,
    ) -> Executable:
        if isinstance(workload_or_schedule, Schedule):
            raise TargetError(
                "the simplepim target reproduces the framework's fixed"
                " handler structure; compile a Workload"
            )
        _fixed_structure_level(self.kind, opt_level)
        workload = workload_or_schedule
        if not self.supports(workload):
            raise TargetError(
                f"SimplePIM supports va/geva/red, not {workload.name!r}"
            )
        module, profile = simplepim_build(workload, self.config)
        return UpmemExecutable(module, self, workload, None, profile)


class CpuTarget(Target):
    """TVM-autotuned CPU baseline as a calibrated roofline (§6).

    A roofline prices the workload, not a module, so it ignores
    ``params`` (fig16 replays one request mix, upmem params included,
    across upmem and cpu) and accepts every level.
    """

    kind = "cpu"

    def __init__(self, model: Optional[Any] = None) -> None:
        self.model = model or CpuModel()

    @property
    def config(self):
        return self.model

    def supports(self, workload: Workload) -> bool:
        return isinstance(workload, Workload) and workload.reference is not None

    def compile(
        self,
        workload_or_schedule: Any,
        opt_level: str = "O3",
        params: Optional[Dict[str, int]] = None,
    ) -> Executable:
        if isinstance(workload_or_schedule, Schedule):
            raise TargetError(
                f"the {self.kind} roofline models workloads analytically;"
                " explicit schedules belong on target='upmem'"
            )
        check_level(opt_level)
        return RooflineExecutable(self, workload_or_schedule, self.model)


# ---------------------------------------------------------------------------
# the target table
# ---------------------------------------------------------------------------

#: Every kind ``get_target`` resolves, to the class it constructs.
_TARGETS: Dict[str, type] = {
    cls.kind: cls
    for cls in (UpmemTarget, PrimTarget, SimplePimTarget, CpuTarget)
}


def get_target(spec: Union[str, Target]) -> Target:
    """Resolve a target spec: instances pass through, a kind string
    constructs a fresh default-configured instance."""
    if isinstance(spec, Target):
        return spec
    try:
        cls = _TARGETS[spec]
    except (KeyError, TypeError):
        raise TargetError(
            f"unknown target {spec!r}; known: {list_targets()}"
        ) from None
    return cls()


def list_targets() -> List[str]:
    """The target kinds, sorted."""
    return sorted(_TARGETS)
