"""The ATiM compile flow as passes, and the one pipeline made of them.

Schedule → loop TIR (§5.2.2), then the O1–O3 PIM-aware kernel
optimizations (§5.3) in their fixed order: :data:`build`.
Hardware-constraint verification (§5.2.4) follows the pipeline inside
:meth:`repro.autotune.CompileEngine.compile`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from ..lowering import LoweredModule, lower
from ..optim import (
    eliminate_copy_checks,
    hoist_invariant_branches,
    tighten_loop_bounds,
)
from ..tir import Stmt
from .core import Pass, PassContext, PassManager

__all__ = ["LowerSchedulePass", "KernelPass", "build"]


class LowerSchedulePass(Pass):
    """Schedule → :class:`LoweredModule` (loop nests, boundary checks,
    WRAM materialization, MRAM tiling and host/kernel split)."""

    name = "lower"

    def run(self, schedule, ctx: PassContext) -> LoweredModule:
        return lower(schedule, name=ctx.module_name, options=ctx.options)


class KernelPass(Pass):
    """A kernel-level ``Stmt -> Stmt`` rewrite applied to a module's
    kernel, named after the rewrite."""

    def __init__(self, fn: Callable[[Stmt], Stmt], min_level: str) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.min_level = min_level

    def run(self, module: LoweredModule, ctx: PassContext) -> LoweredModule:
        kernel = self.fn(module.kernel)
        if kernel is module.kernel:
            return module
        return replace(module, kernel=kernel)


#: The compile pipeline every module goes through: lowering, then
#: O1 — DMA-aware boundary-check elimination (§5.3.1), O2 — loop-bound
#: tightening for imperfect tiles (§5.3.2), O3 — invariant branch
#: hoisting out of hot loops (§5.3.3), each gated on the context's level.
build = PassManager(
    [
        LowerSchedulePass(),
        KernelPass(eliminate_copy_checks, min_level="O1"),
        KernelPass(tighten_loop_bounds, min_level="O2"),
        KernelPass(hoist_invariant_branches, min_level="O3"),
    ],
    name="build",
)
