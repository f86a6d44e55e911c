"""DMA-aware boundary-check elimination (paper §5.3.1, Fig. 8b).

Copy loops between MRAM and WRAM are guarded by boundary checks on
imperfect tiles.  Because MRAM tiles are locally padded (allocated in
multiples of the tile size) and the same checks still guard the compute
and the host readout, the copy-side checks are redundant: we remove them,
and the now-unconditional contiguous loops become single DMA bursts
(``mram_read``/``mram_write``).  Outer loops whose iterations advance both
sides contiguously are merged into the burst ("repeated until further
unrolling is impossible").
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    PrimExpr,
    Stmt,
    Var,
    affine_coeffs,
    simplify,
    substitute,
)
from ..tir.visitor import StmtMutator

__all__ = ["eliminate_copy_checks"]

_COPY_SCOPES = {("mram", "wram"), ("wram", "mram")}


def _is_copy_store(stmt: Stmt) -> bool:
    """A pure element copy between WRAM and MRAM."""
    if not isinstance(stmt, BufferStore):
        return False
    if not isinstance(stmt.value, BufferLoad):
        return False
    return (stmt.value.buffer.scope, stmt.buffer.scope) in _COPY_SCOPES


def _strip_guard(stmt: Stmt) -> Optional[BufferStore]:
    """Unwrap ``if boundary: copy`` into the bare copy, if applicable."""
    if isinstance(stmt, IfThenElse):
        inner = stmt.then_case
        if _is_copy_store(inner):
            return inner  # type: ignore[return-value]
        return None
    if _is_copy_store(stmt):
        return stmt  # type: ignore[return-value]
    return None


def _stride_of(indices: Tuple[PrimExpr, ...], buffer: Buffer, var: Var) -> Optional[int]:
    """Stride of ``var`` in the flattened (row-major) index, or None."""
    flat = buffer.flat_index(list(indices))
    dec = affine_coeffs(flat)
    if dec is None:
        return None
    coeffs, _ = dec
    return coeffs.get(var, 0)


def _zero_var(exprs, var: Var):
    return [simplify(substitute(e, {var: IntImm(0)})) for e in exprs]


class _DmaEliminator(StmtMutator):
    """Bottom-up rewrite of guarded copy loops into DMA bursts."""

    def visit_For(self, node: For) -> Stmt:
        body = self.visit_stmt(node.body)
        node = node.with_body(body) if body is not node.body else node
        if node.kind is ForKind.THREAD_BINDING:
            return node
        # Lowering refuses a kernel loop of non-constant extent.
        extent = node.extent

        copy = _strip_guard(node.body)
        if copy is not None:
            stmt = self._loop_to_dma(node, copy, extent.value)
            if stmt is not None:
                return stmt
            # Even without contiguity the guard is still removable.
            if copy is not node.body:
                return node.with_body(copy)
            return node

        if isinstance(node.body, DmaCopy):
            merged = self._merge_outer(node, node.body, extent.value)
            if merged is not None:
                return merged
        return node

    def _loop_to_dma(
        self, loop: For, copy: BufferStore, extent: int
    ) -> Optional[Stmt]:
        load: BufferLoad = copy.value  # type: ignore[assignment]
        v = loop.var
        dst_stride = _stride_of(copy.indices, copy.buffer, v)
        src_stride = _stride_of(load.indices, load.buffer, v)
        if dst_stride != 1 or src_stride != 1:
            return None
        return DmaCopy(
            copy.buffer,
            _zero_var(copy.indices, v),
            load.buffer,
            _zero_var(load.indices, v),
            extent,
        )

    def _merge_outer(self, loop: For, dma: DmaCopy, extent: int) -> Optional[Stmt]:
        v = loop.var
        dst_stride = _stride_of(dma.dst_base, dma.dst, v)
        src_stride = _stride_of(dma.src_base, dma.src, v)
        if dst_stride != dma.size or src_stride != dma.size:
            return None
        return DmaCopy(
            dma.dst,
            _zero_var(dma.dst_base, v),
            dma.src,
            _zero_var(dma.src_base, v),
            dma.size * extent,
        )


def eliminate_copy_checks(kernel: Stmt) -> Stmt:
    """Apply §5.3.1 to a kernel statement tree."""
    result = _DmaEliminator().visit_stmt(kernel)
    assert result is not None
    return result
