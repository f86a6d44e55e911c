"""Concrete passes composing the ATiM compile flow.

The stages the paper describes — schedule → loop TIR (§5.2.2) and the
O1–O3 PIM-aware kernel optimizations (§5.3) — each become one named
:class:`Pass` so pipelines can compose, reorder and instrument them.
Hardware-constraint verification (§5.2.4) follows the pipeline inside
:meth:`repro.autotune.CompileEngine.compile`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional

from ..lowering import LoweredModule, LowerOptions, lower
from ..optim.dma_elim import eliminate_copy_checks
from ..optim.hoist import hoist_invariant_branches
from ..optim.tighten import tighten_loop_bounds
from ..tir import Stmt
from .core import Pass, PassContext, PipelineError

__all__ = [
    "LowerSchedulePass",
    "KernelPass",
    "EliminateCopyChecks",
    "TightenLoopBounds",
    "HoistInvariantBranches",
    "kernel_passes",
]


class LowerSchedulePass(Pass):
    """Schedule → :class:`LoweredModule` (loop nests, boundary checks,
    WRAM materialization, MRAM tiling and host/kernel split)."""

    name = "lower"

    def run(self, schedule, ctx: PassContext) -> LoweredModule:
        options = ctx.options or LowerOptions(optimize=ctx.opt_level)
        return lower(schedule, name=ctx.module_name, options=options)


class KernelPass(Pass):
    """A kernel-level ``Stmt -> Stmt`` rewrite lifted to module level.

    Accepts either a :class:`LoweredModule` (rewrites its ``kernel``) or a
    bare kernel :class:`Stmt`, so the same pass objects back both
    ``optimize_module`` and ``optimize_kernel``.
    """

    def __init__(
        self,
        fn: Callable[[Stmt], Stmt],
        name: Optional[str] = None,
        min_level: str = "O0",
    ) -> None:
        self.fn = fn
        self.name = name or fn.__name__
        self.min_level = min_level

    def run(self, obj, ctx: PassContext):
        if isinstance(obj, LoweredModule):
            kernel = self.fn(obj.kernel)
            if kernel is obj.kernel:
                return obj
            return replace(obj, kernel=kernel)
        if isinstance(obj, Stmt):
            return self.fn(obj)
        raise PipelineError(
            f"kernel pass {self.name!r} needs a LoweredModule or Stmt,"
            f" got {type(obj).__name__}"
        )


class EliminateCopyChecks(KernelPass):
    """O1 — DMA-aware boundary-check elimination (paper §5.3.1)."""

    def __init__(self) -> None:
        super().__init__(
            eliminate_copy_checks, name="eliminate_copy_checks", min_level="O1"
        )


class TightenLoopBounds(KernelPass):
    """O2 — loop-bound tightening for imperfect tiles (paper §5.3.2)."""

    def __init__(self) -> None:
        super().__init__(
            tighten_loop_bounds, name="tighten_loop_bounds", min_level="O2"
        )


class HoistInvariantBranches(KernelPass):
    """O3 — invariant branch hoisting out of hot loops (paper §5.3.3)."""

    def __init__(self) -> None:
        super().__init__(
            hoist_invariant_branches, name="hoist_invariant_branches", min_level="O3"
        )


def kernel_passes() -> List[KernelPass]:
    """Fresh instances of the §5.3 kernel passes in canonical O1→O3 order."""
    return [EliminateCopyChecks(), TightenLoopBounds(), HoistInvariantBranches()]
