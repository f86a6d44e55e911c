"""PIM-aware tensor-level optimizations (paper §5.3 / Fig. 13).

Three kernel rewrites, each ``Stmt -> Stmt``; :data:`LEVELS` names how
many of them a compile applies.  :data:`repro.pipeline.build` is the one
place that composes them after lowering.
"""

from .dma_elim import eliminate_copy_checks
from .hoist import hoist_invariant_branches
from .tighten import tighten_loop_bounds

__all__ = [
    "eliminate_copy_checks",
    "tighten_loop_bounds",
    "hoist_invariant_branches",
    "LEVELS",
    "check_level",
]

#: The §5.3 optimization levels, the only spelling of them: ``O0`` — no
#: rewrite; ``O1`` — DMA-aware boundary-check elimination; ``O2`` — +
#: loop-bound tightening; ``O3`` — + invariant branch hoisting.
LEVELS = ("O0", "O1", "O2", "O3")


def check_level(opt_level: str) -> None:
    """Refuse a level outside :data:`LEVELS` (every target checks it,
    whether or not it runs the passes)."""
    if opt_level not in LEVELS:
        raise ValueError(f"opt_level must be one of {LEVELS}")
