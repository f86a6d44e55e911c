"""Instruction-cost accounting for kernel expressions.

The DPU is a 32-bit in-order core without an FPU or a 32x32 multiplier;
arithmetic costs below are issue-slot counts per operation, following the
instruction-level characterization in PrIM (§3.1) and uPIMulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..tir import (
    Add,
    And,
    BufferLoad,
    CmpOp,
    FloatImm,
    FloorDiv,
    FloorMod,
    IntImm,
    Max,
    Min,
    Mul,
    PrimExpr,
    Sub,
    Var,
)
from .config import UpmemConfig

__all__ = ["Counts", "ExprCoster"]


@dataclass
class Counts:
    """Dynamic cost counters accumulated by the timing walker.

    ``slots`` are pipeline issue slots (1 cycle each at full occupancy);
    DMA work is kept separate because the DMA engine runs concurrently
    with the pipeline.
    """

    slots: float = 0.0
    branches: float = 0.0
    dma_calls: float = 0.0
    dma_bytes: float = 0.0
    barriers: float = 0.0
    compute_ops: float = 0.0  # innermost arithmetic (for GFLOPS reporting)
    stores: float = 0.0
    loads: float = 0.0

    def __iadd__(self, other: "Counts") -> "Counts":
        self.slots += other.slots
        self.branches += other.branches
        self.dma_calls += other.dma_calls
        self.dma_bytes += other.dma_bytes
        self.barriers += other.barriers
        self.compute_ops += other.compute_ops
        self.stores += other.stores
        self.loads += other.loads
        return self

    def __add__(self, other: "Counts") -> "Counts":
        result = Counts()
        result += self
        result += other
        return result

    def scaled(self, n: float) -> "Counts":
        return Counts(
            slots=self.slots * n,
            branches=self.branches * n,
            dma_calls=self.dma_calls * n,
            dma_bytes=self.dma_bytes * n,
            barriers=self.barriers * n,
            compute_ops=self.compute_ops * n,
            stores=self.stores * n,
            loads=self.loads * n,
        )

    @property
    def instructions(self) -> float:
        """Total dynamic instruction estimate (Fig. 13's line series)."""
        return self.slots


def _pow2_const_operand(expr: Mul) -> bool:
    for side in (expr.a, expr.b):
        if isinstance(side, IntImm) and side.value > 0:
            if side.value & (side.value - 1) == 0:
                return True
    return False


class ExprCoster:
    """Static issue-slot cost of expressions (memoized by node identity)."""

    def __init__(self, config: UpmemConfig) -> None:
        self.config = config
        # Memo holds the expression object alongside its cost: keying by
        # id() alone is unsound because CPython reuses ids of collected
        # objects.
        self._memo: Dict[int, tuple] = {}

    def cost(self, expr: PrimExpr) -> Counts:
        memo = self._memo.get(id(expr))
        if memo is not None and memo[0] is expr:
            return memo[1]
        result = self._cost(expr)
        self._memo[id(expr)] = (expr, result)
        return result

    def _cost(self, expr: PrimExpr) -> Counts:
        cfg = self.config
        c = Counts()
        if isinstance(expr, (IntImm, FloatImm, Var)):
            return c
        if isinstance(expr, BufferLoad):
            for i in expr.indices:
                c += self.cost(i)
            c.loads += 1
            if expr.buffer.scope == "mram":
                # Element-wise MRAM access: an un-batched 8-byte DMA.
                c.dma_calls += 1
                c.dma_bytes += max(expr.buffer.elem_bytes, cfg.dma_align_bytes)
                c.slots += 2  # address setup + issue
            else:
                c.slots += 1
            # Multi-dimensional addressing costs one MAD per extra dim.
            c.slots += max(0, len(expr.indices) - 1)
            return c
        if isinstance(expr, (Add, Sub)):
            c += self.cost(expr.a)
            c += self.cost(expr.b)
            is_float = expr.dtype.startswith("float")
            c.slots += cfg.float_add_cycles if is_float else 1.0
            c.compute_ops += 1
            return c
        if isinstance(expr, Mul):
            c += self.cost(expr.a)
            c += self.cost(expr.b)
            if expr.dtype.startswith("float"):
                c.slots += cfg.float_mul_cycles
            elif _pow2_const_operand(expr):
                c.slots += 1.0  # strength-reduced to a shift
            else:
                c.slots += cfg.int_mul_cycles
            c.compute_ops += 1
            return c
        if isinstance(expr, (FloorDiv, FloorMod)):
            c += self.cost(expr.a)
            c += self.cost(expr.b)
            c.slots += 2.0 if isinstance(expr.b, IntImm) else 10.0
            return c
        if isinstance(expr, (Min, Max)):
            c += self.cost(expr.a)
            c += self.cost(expr.b)
            c.slots += 2.0
            return c
        if isinstance(expr, (CmpOp, And)):
            c += self.cost(expr.a)
            c += self.cost(expr.b)
            c.slots += 1.0
            return c
        raise TypeError(f"cannot cost {type(expr).__name__}")
