"""UPMEM constraint verifier (paper §5.2.4).

Filters schedule candidates that violate hardware limits before they are
"measured", keeping the evolutionary search efficient: DPU count, tasklet
count, WRAM capacity (including per-tasklet private caches), MRAM tile
capacity, and IRAM size via a static instruction estimate.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..lowering import LoweredModule
from ..tir import For, ForKind, IfThenElse, SeqStmt, Stmt
from ..upmem.config import DEFAULT_CONFIG, UpmemConfig

__all__ = ["verify", "VerifyResult"]


VerifyResult = Tuple[bool, str]


def verify(module: LoweredModule, config: Optional[UpmemConfig] = None) -> VerifyResult:
    """Check a lowered module against UPMEM constraints.

    Returns ``(ok, reason)``; ``reason`` names the violated constraint.
    """
    cfg = config or DEFAULT_CONFIG
    n_dpus = module.n_dpus
    if n_dpus < 1:
        return False, "empty DPU grid"
    if n_dpus > cfg.n_dpus:
        return False, f"grid needs {n_dpus} DPUs > {cfg.n_dpus} available"
    if module.n_tasklets < 1 or module.n_tasklets > cfg.max_tasklets:
        return False, (
            f"{module.n_tasklets} tasklets outside 1..{cfg.max_tasklets}"
        )
    wram = module.wram_bytes_per_dpu()
    if wram > cfg.wram_bytes:
        return False, f"WRAM footprint {wram} B > {cfg.wram_bytes} B"
    mram = sum(t.tile_bytes for t in module.transfers) + sum(
        b.nbytes for b in module.mram_internal
    )
    if mram > cfg.mram_bytes:
        return False, f"MRAM footprint {mram} B > {cfg.mram_bytes} B"
    static_instrs = _static_instructions(module.kernel)
    if static_instrs > cfg.iram_instructions:
        return False, (
            f"~{static_instrs} static instructions exceed IRAM"
            f" ({cfg.iram_instructions})"
        )
    return True, "ok"


def _static_instructions(stmt: Stmt) -> int:
    """Rough static code-size estimate (unrolled loops replicate bodies)."""
    if isinstance(stmt, SeqStmt):
        return sum(_static_instructions(s) for s in stmt.stmts)
    if isinstance(stmt, For):
        body = _static_instructions(stmt.body)
        if stmt.kind is ForKind.UNROLLED:
            try:
                extent = stmt.extent.value  # type: ignore[attr-defined]
            except AttributeError:
                extent = 8
            return body * extent + 2
        return body + 4
    if isinstance(stmt, IfThenElse):
        return 3 + _static_instructions(stmt.then_case)
    return 4  # a BufferStore, a DmaCopy or a Barrier
