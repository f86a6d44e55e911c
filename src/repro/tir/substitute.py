"""Variable substitution over expressions and statements."""

from __future__ import annotations

from typing import Dict, Optional

from . import expr as E
from . import stmt as S
from .visitor import StmtMutator

__all__ = ["substitute", "substitute_stmt"]


class _Substituter(StmtMutator):
    def __init__(self, mapping: Dict[E.Var, E.PrimExpr]) -> None:
        self.mapping = mapping

    def visit(self, node: E.PrimExpr) -> E.PrimExpr:
        # nothing to replace below here: keep the subtree (and its caches)
        if self.mapping.keys().isdisjoint(E.free_vars(node)):
            return node
        return super().visit(node)

    def visit_Var(self, node: E.Var) -> Optional[E.PrimExpr]:
        return self.mapping.get(node, node)


def substitute(expr: E.PrimExpr, mapping: Dict[E.Var, E.PrimExpr]) -> E.PrimExpr:
    """Replace variables in ``expr`` according to ``mapping``."""
    if not mapping:
        return expr
    return _Substituter(mapping).visit(expr)


def substitute_stmt(stmt: S.Stmt, mapping: Dict[E.Var, E.PrimExpr]) -> S.Stmt:
    """Replace variables in ``stmt`` according to ``mapping``."""
    if not mapping:
        return stmt
    result = _Substituter(mapping).visit_stmt(stmt)
    assert result is not None
    return result
