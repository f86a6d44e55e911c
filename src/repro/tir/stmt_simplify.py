"""Statement-level simplification: unit loops, constant branches, indices."""

from __future__ import annotations

from typing import Optional

from . import expr as E
from . import stmt as S
from .simplify import simplify
from .substitute import substitute_stmt
from .visitor import StmtMutator

__all__ = ["simplify_stmt"]


class _StmtSimplifier(StmtMutator):
    def visit(self, node: E.PrimExpr) -> E.PrimExpr:  # simplify all exprs
        return simplify(node)

    def visit_For(self, node: S.For) -> Optional[S.Stmt]:
        body = self.visit_stmt(node.body)
        if body is None:
            return None
        extent = simplify(node.extent)
        if isinstance(extent, E.IntImm):
            if extent.value <= 0:
                return None
            if extent.value == 1 and node.kind is not S.ForKind.THREAD_BINDING:
                inlined = substitute_stmt(body, {node.var: E.IntImm(0)})
                result = _StmtSimplifier().visit_stmt(inlined)
                return result
        return S.For(node.var, extent, body, node.kind, node.thread_tag)

    def visit_IfThenElse(self, node: S.IfThenElse) -> Optional[S.Stmt]:
        cond = simplify(node.condition)
        then_case = self.visit_stmt(node.then_case)
        if isinstance(cond, E.IntImm):
            return then_case if cond.value else None
        if then_case is None:
            return None
        return S.IfThenElse(cond, then_case)


def simplify_stmt(stmt: S.Stmt) -> Optional[S.Stmt]:
    """Simplify a statement tree; returns ``None`` if it vanishes."""
    return _StmtSimplifier().visit_stmt(stmt)
