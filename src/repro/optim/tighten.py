"""Loop-bound tightening (paper §5.3.2, Fig. 8c).

When a loop body is exactly ``if <affine cond>: S`` (the structure the TIR
lowering guarantees for boundary-checked loops), an upper-bound conjunct
that is monotone in the loop variable can be intersected with the loop
extent: ``for k in range(16): if k + j*16 < K: S`` becomes
``for k in range(min(16, K - j*16)): S``.  Dead iterations are skipped at
run time instead of being tested and rejected.
"""

from __future__ import annotations

from typing import List, Optional

from ..tir import (
    And,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    LT,
    Max,
    Min,
    PrimExpr,
    Stmt,
    affine_coeffs,
    all_of,
    simplify,
)
from ..tir.visitor import StmtMutator

__all__ = ["tighten_loop_bounds"]


def _conjuncts(cond: PrimExpr) -> List[PrimExpr]:
    if isinstance(cond, And):
        return _conjuncts(cond.a) + _conjuncts(cond.b)
    return [cond]


def _tighten_extent(
    loop_var, extent: PrimExpr, cond: PrimExpr
) -> Optional[PrimExpr]:
    """New extent implied by ``cond`` (a ``lhs < rhs`` check), or None.

    For ``a*v + b < C`` with ``a > 0``: ``v < ceil((C - b) / a)``, i.e.
    ``extent' = min(extent, floordiv(C - b - 1, a) + 1)``.
    """
    if not isinstance(cond, LT):
        return None
    diff = simplify(cond.a - cond.b)  # a*v + b - C < 0
    dec = affine_coeffs(diff)
    if dec is None:
        return None
    coeffs, const = dec
    a = coeffs.get(loop_var)
    if a is None or a <= 0:
        return None
    rest = IntImm(const)
    for var, c in coeffs.items():
        if var is loop_var:
            continue
        rest = rest + var * c
    # a*v + rest < 0  =>  v <= floor((-rest - 1) / a)
    bound = simplify(((IntImm(0) - rest) - 1) // a + 1)
    tightened = simplify(Min(extent, Max(bound, IntImm(0))))
    return tightened


class _Tightener(StmtMutator):
    def visit_For(self, node: For) -> Stmt:
        body = self.visit_stmt(node.body)
        if body is not node.body:
            node = node.with_body(body)
        if node.kind is ForKind.THREAD_BINDING:
            return node
        guarded = node.body
        if not isinstance(guarded, IfThenElse):
            return node
        extent = node.extent
        remaining: List[PrimExpr] = []
        changed = False
        for conj in _conjuncts(guarded.condition):
            new_extent = _tighten_extent(node.var, extent, conj)
            if new_extent is not None:
                extent = new_extent
                changed = True
            else:
                remaining.append(conj)
        if not changed:
            return node
        cond = all_of(remaining)
        new_body: Stmt = (
            guarded.then_case
            if cond is None
            else IfThenElse(simplify(cond), guarded.then_case)
        )
        return For(node.var, simplify(extent), new_body, node.kind, node.thread_tag)


def tighten_loop_bounds(kernel: Stmt) -> Stmt:
    """Apply §5.3.2 to a kernel statement tree."""
    result = _Tightener().visit_stmt(kernel)
    assert result is not None
    return result
