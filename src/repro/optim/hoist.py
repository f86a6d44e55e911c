"""Invariant branch hoisting with partial-dead-code sinking (§5.3.3, Fig. 8d).

Two cooperating rewrites, iterated to a fixpoint:

1. *Unswitching*: ``for j: if c: S`` where ``c`` does not depend on ``j``
   becomes ``if c: for j: S``.
2. *PDCE sinking*: in a sequence ``[fill...; if c: consume]`` where the
   fills only write WRAM buffers that are read solely inside the guarded
   consumer, the fills are partially dead outside ``c`` and are sunk into
   the branch — which then lets rewrite (1) hoist ``c`` above enclosing
   loops that the fills previously pinned.

The lowering invariant making (2) safe is that all consumers of a caching
loop sit under the boundary condition (§5.3 of the paper).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    SeqStmt,
    Stmt,
    collect_loads,
    free_vars,
    iter_stmts,
    seq,
)
from ..tir.visitor import StmtMutator

__all__ = ["hoist_invariant_branches"]


def _written_wram(stmt: Stmt) -> Optional[Set[Buffer]]:
    """WRAM buffers written by a pure fill statement; None if not a fill.

    A fill is a (nest of) copy statements whose only side effects are
    stores into WRAM buffers.
    """
    written: Set[Buffer] = set()
    for s in iter_stmts(stmt):
        if isinstance(s, BufferStore):
            if s.buffer.scope != "wram":
                return None
            written.add(s.buffer)
        elif isinstance(s, DmaCopy):
            if s.dst.scope != "wram":
                return None
            written.add(s.dst)
        elif not isinstance(s, (For, SeqStmt, IfThenElse)):
            return None
    return written if written else None


def _buffers_read(stmt: Stmt) -> Set[Buffer]:
    bufs: Set[Buffer] = set()
    for s in iter_stmts(stmt):
        if isinstance(s, BufferStore):
            for load in collect_loads(s.value):
                bufs.add(load.buffer)
            for i in s.indices:
                for load in collect_loads(i):
                    bufs.add(load.buffer)
        elif isinstance(s, IfThenElse):
            for load in collect_loads(s.condition):
                bufs.add(load.buffer)
        elif isinstance(s, DmaCopy):
            bufs.add(s.src)
    return bufs


class _Hoister(StmtMutator):
    def __init__(self) -> None:
        self.changed = False

    # (1) loop unswitching --------------------------------------------------
    def visit_For(self, node: For) -> Optional[Stmt]:
        body = self.visit_stmt(node.body)
        if body is None:
            return None
        if body is not node.body:
            node = node.with_body(body)
        if node.kind is ForKind.THREAD_BINDING:
            return node
        inner = node.body
        if (
            isinstance(inner, IfThenElse)
            and node.var not in free_vars(inner.condition)
        ):
            self.changed = True
            return IfThenElse(
                inner.condition,
                For(node.var, node.extent, inner.then_case, node.kind,
                    node.thread_tag),
            )
        return node

    # (2) PDCE sinking -----------------------------------------------------------
    def visit_SeqStmt(self, node: SeqStmt) -> Optional[Stmt]:
        stmts: List[Stmt] = []
        for s in node.stmts:
            ns = self.visit_stmt(s)
            if ns is not None:
                stmts.append(ns)
        if not stmts:
            return None

        result: List[Stmt] = []
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, IfThenElse) and result:
                sinkable: List[Stmt] = []
                consumed = _buffers_read(s.then_case)
                guard_reads = {ld.buffer for ld in collect_loads(s.condition)}
                while result:
                    candidate = result[-1]
                    written = _written_wram(candidate)
                    if (
                        written
                        and written <= consumed
                        and not (written & guard_reads)
                        and not self._read_elsewhere(written, stmts, i, s)
                    ):
                        sinkable.insert(0, result.pop())
                    else:
                        break
                if sinkable:
                    self.changed = True
                    s = IfThenElse(s.condition, seq(*sinkable, s.then_case))
            result.append(s)
            i += 1
        if len(result) == 1:
            return result[0]
        return SeqStmt(result)

    @staticmethod
    def _read_elsewhere(
        written: Set[Buffer], stmts: List[Stmt], guard_pos: int, guard: Stmt
    ) -> bool:
        """Whether the filled buffers are read outside the guarded branch."""
        for j, other in enumerate(stmts):
            if j == guard_pos:
                continue
            if _buffers_read(other) & written:
                return True
        return False


#: Rounds of unswitch + sink before giving up on a fixpoint.
_MAX_ROUNDS = 8


def hoist_invariant_branches(kernel: Stmt) -> Stmt:
    """Apply §5.3.3 to a kernel statement tree (iterated to fixpoint)."""
    current = kernel
    for _ in range(_MAX_ROUNDS):
        hoister = _Hoister()
        result = hoister.visit_stmt(current)
        assert result is not None
        current = result
        if not hoister.changed:
            break
    return current
