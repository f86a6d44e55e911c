"""Generic visitors and mutators over TIR expressions and statements.

Subclasses override ``visit_<NodeType>`` hooks.  The hooks of a visitor
class are resolved once, when the class is created, into a table keyed by
node type; visiting a node is then one dictionary lookup.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from . import expr as E
from . import stmt as S

__all__ = [
    "ExprVisitor",
    "ExprMutator",
    "StmtVisitor",
    "StmtMutator",
    "post_order_exprs",
    "collect_vars",
    "collect_loads",
    "iter_stmts",
]

_NODE_TYPES = [
    cls
    for module in (E, S)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, (E.PrimExpr, S.Stmt))
]


class _Dispatching:
    """Resolves a class's ``visit_<NodeType>`` methods into ``_hooks``."""

    _hooks: Dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._hooks = {
            node_type: getattr(cls, "visit_" + node_type.__name__)
            for node_type in _NODE_TYPES
            if hasattr(cls, "visit_" + node_type.__name__)
        }


class ExprVisitor(_Dispatching):
    """Read-only traversal over expressions; override ``visit_*`` hooks."""

    def visit(self, node: E.PrimExpr) -> None:
        hook = self._hooks.get(type(node))
        if hook is not None:
            hook(self, node)
        self.generic_visit(node)

    def generic_visit(self, node: E.PrimExpr) -> None:
        for child in node.children():
            self.visit(child)


# Rebuilders: visit the children of one node shape, keep the node when
# nothing below it changed.


def _mutate_binary(mutator: "ExprMutator", node: E.BinaryOp) -> E.PrimExpr:
    a = mutator.visit(node.a)
    b = mutator.visit(node.b)
    if a is node.a and b is node.b:
        return node
    return type(node)(a, b)


def _mutate_unary(mutator: "ExprMutator", node: E.UnaryOp) -> E.PrimExpr:
    a = mutator.visit(node.a)
    return node if a is node.a else type(node)(a)


def _mutate_select(mutator: "ExprMutator", node: E.Select) -> E.PrimExpr:
    new = [mutator.visit(c) for c in node.children()]
    if all(n is o for n, o in zip(new, node.children())):
        return node
    return E.Select(*new)


def _mutate_load(mutator: "ExprMutator", node: E.BufferLoad) -> E.PrimExpr:
    idx = [mutator.visit(i) for i in node.indices]
    if all(n is o for n, o in zip(idx, node.indices)):
        return node
    return E.BufferLoad(node.buffer, idx)


_EXPR_REBUILD: Dict[type, Callable] = {
    cls: _mutate_binary for cls in _NODE_TYPES if issubclass(cls, E.BinaryOp)
}
_EXPR_REBUILD.update(
    (cls, _mutate_unary) for cls in _NODE_TYPES if issubclass(cls, E.UnaryOp)
)
_EXPR_REBUILD[E.Select] = _mutate_select
_EXPR_REBUILD[E.BufferLoad] = _mutate_load


class ExprMutator(_Dispatching):
    """Rebuilding traversal: ``visit`` returns a (possibly new) expression.

    A mutator with no expression hooks cannot change an expression, so it
    does not walk them: statement-only passes cost nothing per expression.
    """

    _rewrites_exprs = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._rewrites_exprs = (
            any(issubclass(t, E.PrimExpr) for t in cls._hooks)
            or cls.generic_visit is not ExprMutator.generic_visit
        )

    def visit(self, node: E.PrimExpr) -> E.PrimExpr:
        if not self._rewrites_exprs:
            return node
        hook = self._hooks.get(type(node))
        if hook is not None:
            result = hook(self, node)
            if result is not None:
                return result
        return self.generic_visit(node)

    def generic_visit(self, node: E.PrimExpr) -> E.PrimExpr:
        rebuild = _EXPR_REBUILD.get(type(node))
        return node if rebuild is None else rebuild(self, node)


class StmtVisitor(ExprVisitor):
    """Read-only traversal over statements (and the expressions inside)."""

    def visit_stmt(self, node: S.Stmt) -> None:
        hook = self._hooks.get(type(node))
        if hook is not None:
            hook(self, node)
        self.generic_visit_stmt(node)

    def generic_visit_stmt(self, node: S.Stmt) -> None:
        if isinstance(node, S.For):
            self.visit(node.extent)
            self.visit_stmt(node.body)
        elif isinstance(node, S.IfThenElse):
            self.visit(node.condition)
            self.visit_stmt(node.then_case)
        elif isinstance(node, S.BufferStore):
            self.visit(node.value)
            for i in node.indices:
                self.visit(i)
        elif isinstance(node, S.SeqStmt):
            for s in node.stmts:
                self.visit_stmt(s)
        elif isinstance(node, S.DmaCopy):
            for i in node.dst_base:
                self.visit(i)
            for i in node.src_base:
                self.visit(i)


class StmtMutator(ExprMutator):
    """Rebuilding traversal over statements.

    Hooks named ``visit_<NodeType>`` fully own their node: they must return
    the replacement statement (``None`` deletes the statement) and call
    :meth:`generic_visit_stmt` themselves if they want recursion.
    """

    def visit_stmt(self, node: S.Stmt) -> Optional[S.Stmt]:
        hook = self._hooks.get(type(node))
        if hook is not None:
            return hook(self, node)
        return self.generic_visit_stmt(node)

    def generic_visit_stmt(self, node: S.Stmt) -> Optional[S.Stmt]:
        if isinstance(node, S.For):
            extent = self.visit(node.extent)
            body = self.visit_stmt(node.body)
            if body is None:
                return None
            if extent is node.extent and body is node.body:
                return node
            return S.For(node.var, extent, body, node.kind, node.thread_tag)
        if isinstance(node, S.IfThenElse):
            cond = self.visit(node.condition)
            then_case = self.visit_stmt(node.then_case)
            if then_case is None:
                return None
            if cond is node.condition and then_case is node.then_case:
                return node
            return S.IfThenElse(cond, then_case)
        if isinstance(node, S.BufferStore):
            value = self.visit(node.value)
            indices = [self.visit(i) for i in node.indices]
            if value is node.value and all(
                n is o for n, o in zip(indices, node.indices)
            ):
                return node
            return S.BufferStore(node.buffer, value, indices)
        if isinstance(node, S.SeqStmt):
            new_stmts = []
            changed = False
            for s in node.stmts:
                ns = self.visit_stmt(s)
                changed = changed or ns is not s
                if ns is not None:
                    new_stmts.append(ns)
            if not changed:
                return node
            if not new_stmts:
                return None
            if len(new_stmts) == 1:
                return new_stmts[0]
            return S.SeqStmt(new_stmts)
        if isinstance(node, S.DmaCopy):
            dst_base = [self.visit(i) for i in node.dst_base]
            src_base = [self.visit(i) for i in node.src_base]
            if all(n is o for n, o in zip(dst_base, node.dst_base)) and all(
                n is o for n, o in zip(src_base, node.src_base)
            ):
                return node
            return S.DmaCopy(node.dst, dst_base, node.src, src_base, node.size)
        return node


def post_order_exprs(node: E.PrimExpr) -> Iterator[E.PrimExpr]:
    """Yield every sub-expression of ``node`` in post-order."""
    for child in node.children():
        yield from post_order_exprs(child)
    yield node


def collect_vars(node: E.PrimExpr) -> List[E.Var]:
    """All distinct :class:`Var` nodes in ``node`` (in first-seen order)."""
    return list(E.free_vars(node))


def collect_loads(node: E.PrimExpr) -> List[E.BufferLoad]:
    """All buffer loads in ``node``."""
    return [s for s in post_order_exprs(node) if isinstance(s, E.BufferLoad)]


def iter_stmts(node: S.Stmt) -> Iterator[S.Stmt]:
    """Yield every statement in ``node`` in pre-order."""
    yield node
    if isinstance(node, S.For):
        yield from iter_stmts(node.body)
    elif isinstance(node, S.IfThenElse):
        yield from iter_stmts(node.then_case)
    elif isinstance(node, S.SeqStmt):
        for s in node.stmts:
            yield from iter_stmts(s)
