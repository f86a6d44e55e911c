"""Statement nodes for loop-based TIR.

The statement language holds exactly what ATiM's lowering emits: loop
nests (``For``, with its :class:`ForKind`), the §5.3 boundary checks
(``IfThenElse``, which has no ``else``), buffer stores, statement
sequences, WRAM↔MRAM DMA bursts (``DmaCopy``) and the tasklet
``Barrier`` between kernel stages.  Host↔DPU transfers are not
statements: they are the module's :class:`~repro.lowering.TransferSpec`s.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from .buffer import Buffer
from .expr import PrimExpr, as_expr

__all__ = [
    "Stmt",
    "ForKind",
    "For",
    "IfThenElse",
    "BufferStore",
    "SeqStmt",
    "Barrier",
    "DmaCopy",
    "seq",
]


class ForKind(enum.Enum):
    """How a loop executes.

    ``THREAD_BINDING`` loops carry a ``thread_tag``: ``blockIdx.*`` for
    inter-DPU parallelism (DPU binding) and ``threadIdx.x`` for intra-DPU
    tasklet parallelism, mirroring ATiM's repurposing of GPU-style binds.
    """

    SERIAL = "serial"
    PARALLEL = "parallel"  # host multi-thread loop
    UNROLLED = "unroll"
    THREAD_BINDING = "thread_binding"


class Stmt:
    """Base class of statements (identity-hashed, immutable by convention)."""

    __slots__ = ()

    def __repr__(self) -> str:
        from .printer import stmt_to_str

        return stmt_to_str(self)


class For(Stmt):
    """``for var in range(extent): body`` with an execution kind."""

    __slots__ = ("var", "extent", "body", "kind", "thread_tag")

    def __init__(
        self,
        var,
        extent,
        body: Stmt,
        kind: ForKind = ForKind.SERIAL,
        thread_tag: Optional[str] = None,
    ) -> None:
        if kind is ForKind.THREAD_BINDING and not thread_tag:
            raise ValueError("thread-binding loops require a thread_tag")
        self.var = var
        self.extent = as_expr(extent)
        self.body = body
        self.kind = kind
        self.thread_tag = thread_tag

    def with_body(self, body: Stmt) -> "For":
        return For(self.var, self.extent, body, self.kind, self.thread_tag)


class IfThenElse(Stmt):
    """``if condition: then_case`` — a §5.3 boundary check (no ``else``)."""

    __slots__ = ("condition", "then_case")

    def __init__(self, condition, then_case: Stmt) -> None:
        self.condition = as_expr(condition)
        self.then_case = then_case


class BufferStore(Stmt):
    """``buffer[indices...] = value``."""

    __slots__ = ("buffer", "value", "indices")

    def __init__(self, buffer: Buffer, value, indices: Sequence[PrimExpr]) -> None:
        self.buffer = buffer
        self.value = as_expr(value)
        self.indices: Tuple[PrimExpr, ...] = tuple(as_expr(i) for i in indices)


class SeqStmt(Stmt):
    """Statement sequence (flattened on construction)."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt]) -> None:
        flat: List[Stmt] = []
        for s in stmts:
            if isinstance(s, SeqStmt):
                flat.extend(s.stmts)
            elif s is not None:
                flat.append(s)
        self.stmts: Tuple[Stmt, ...] = tuple(flat)


class Barrier(Stmt):
    """The intra-DPU tasklet barrier (``barrier_wait``) between the stages
    of a multi-stage kernel."""

    __slots__ = ()


class DmaCopy(Stmt):
    """A WRAM↔MRAM DMA burst: ``dst[dst_base+0:+n] = src[src_base+0:+n]``.

    Produced by DMA-aware boundary-check elimination (§5.3.1) when a
    contiguous, unconditional element-copy loop is replaced by a single
    ``mram_read``/``mram_write`` burst.  ``size`` is the element count of
    the innermost contiguous run; multi-dimensional copies keep outer
    loops and DMA only the last dimension.
    """

    __slots__ = ("dst", "dst_base", "src", "src_base", "size")

    def __init__(
        self,
        dst: "Buffer",
        dst_base: Sequence[PrimExpr],
        src: "Buffer",
        src_base: Sequence[PrimExpr],
        size: int,
    ) -> None:
        self.dst = dst
        self.dst_base = tuple(as_expr(i) for i in dst_base)
        self.src = src
        self.src_base = tuple(as_expr(i) for i in src_base)
        self.size = int(size)

    @property
    def nbytes(self) -> int:
        return self.size * self.dst.elem_bytes


def seq(*stmts: Optional[Stmt]) -> Stmt:
    """Sequence helper that drops ``None`` and unwraps singletons."""
    flat = [s for s in stmts if s is not None]
    if not flat:
        raise ValueError("empty statement sequence")
    if len(flat) == 1:
        return flat[0]
    return SeqStmt(flat)
