"""PIM-aware optimization pipeline: O0 → O3 (paper §5.3 / Fig. 13).

These entry points are thin wrappers over the unified pass pipeline in
:mod:`repro.pipeline`: the §5.3 passes are registered as level-gated
kernel passes of the named ``"optimize"`` pipeline, so the same pass
definitions serve ``repro.compile``, the autotuner's compile engine and
direct callers of :func:`optimize_kernel` (the registry hands each
caller a fresh pipeline instance).
"""

from __future__ import annotations

from ..lowering import LoweredModule
from ..tir import Stmt

__all__ = ["optimize_module", "optimize_kernel", "LEVELS"]

#: PIM-aware optimization levels, paper §5.3 — the canonical definition
#: (``pipeline.OPT_LEVELS`` is an alias of this tuple).
LEVELS = ("O0", "O1", "O2", "O3")


def optimize_kernel(kernel: Stmt, level: str = "O3") -> Stmt:
    """Apply the §5.3 passes to a kernel statement.

    ``O0`` — none; ``O1`` — DMA-aware boundary-check elimination;
    ``O2`` — + loop-bound tightening; ``O3`` — + invariant branch hoisting.
    """
    # Local: ``pipeline`` sits above ``optim`` (its passes wrap the
    # rewrites defined here).
    from ..pipeline import PassContext, get_pipeline

    if level not in LEVELS:
        raise ValueError(f"unknown optimization level {level!r}")
    return get_pipeline("optimize").run(kernel, PassContext(opt_level=level))


def optimize_module(
    module: LoweredModule, level: str = "O3", config=None
) -> LoweredModule:
    """Return a copy of ``module`` with the optimized kernel (``module``
    itself when every pass is an identity)."""
    from ..pipeline import PassContext, get_pipeline  # as above

    if level not in LEVELS:
        raise ValueError(f"unknown optimization level {level!r}")
    ctx = PassContext(config=config, opt_level=level, module_name=module.name)
    return get_pipeline("optimize").run(module, ctx)
