"""Expression simplification: constant folding plus affine normalization.

The simplifier keeps lowered loop extents and boundary conditions in a
canonical, mostly-affine form so that downstream analyses (interval
analysis, loop-bound tightening, the timing walker) can reason about them.
It is intentionally a rewriting simplifier, not a full solver.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import expr as E
from .interval import Interval, eval_interval

__all__ = ["simplify", "const_int", "is_const_int", "affine_coeffs", "prove_lt"]


def const_int(expr: E.PrimExpr) -> Optional[int]:
    """Return the integer value of ``expr`` if it is an integer immediate."""
    if isinstance(expr, E.IntImm):
        return expr.value
    return None


def is_const_int(expr: E.PrimExpr, value: Optional[int] = None) -> bool:
    """Check whether ``expr`` is an integer immediate (optionally equal)."""
    return type(expr) is E.IntImm and (value is None or expr.value == value)


#: ``(coeffs, constant, size)`` of a tree of Add/Sub/Mul/Var/IntImm nodes:
#: its value is ``sum(c * v) + constant`` and it has ``size`` nodes.
#: ``coeffs`` keeps variables in first-encounter order, cancelled ones
#: (coefficient 0) included, and is shared between nodes — never mutated.
_Affine = Tuple[Dict[E.Var, int], int, int]
_NO_COEFFS: Dict[E.Var, int] = {}


def _affine(node: E.PrimExpr) -> Optional[_Affine]:
    """Affine decomposition of ``node``, built once from its children's."""
    kind = type(node)
    if kind is E.IntImm:
        return _NO_COEFFS, node.value, 1
    if kind is E.Var:
        return {node: 1}, 0, 1
    if kind is E.Add or kind is E.Sub:
        dec = node._affine
        if dec is None:
            dec = node._affine = _affine_sum(node, 1 if kind is E.Add else -1)
        return dec or None
    if kind is E.Mul:
        dec = node._affine
        if dec is None:
            dec = node._affine = _affine_product(node)
        return dec or None
    return None


def _affine_sum(node: E.BinaryOp, sign: int):
    """``a + sign*b``; ``False`` (the cached "not affine") if either isn't."""
    left = _affine(node.a)
    if left is None:
        return False
    right = _affine(node.b)
    if right is None:
        return False
    coeffs, constant, size = left
    if right[0]:
        if coeffs or sign < 0:
            coeffs = dict(coeffs)
            for var, c in right[0].items():
                coeffs[var] = coeffs.get(var, 0) + sign * c
        else:
            coeffs = right[0]
    return coeffs, constant + sign * right[1], size + right[2] + 1


def _affine_product(node: E.Mul):
    """``side * constant`` for whichever operand is the immediate."""
    if type(node.b) is E.IntImm:
        side, factor = node.a, node.b.value
    elif type(node.a) is E.IntImm:
        side, factor = node.b, node.a.value
    else:
        return False
    dec = _affine(side)
    if dec is None:
        return False
    coeffs, constant, size = dec
    if coeffs and factor != 1:
        coeffs = {var: c * factor for var, c in coeffs.items()}
    return coeffs, constant * factor, size + 2


def affine_coeffs(expr: E.PrimExpr) -> Optional[Tuple[Dict[E.Var, int], int]]:
    """Decompose an integer expression as ``sum(c_i * v_i) + c0``.

    Returns ``(coeffs, constant)`` or ``None`` if the expression is not
    affine in its variables (e.g. contains ``//``, ``%``, ``min`` or loads).
    """
    dec = _affine(expr)
    if dec is None:
        return None
    return {v: c for v, c in dec[0].items() if c != 0}, dec[1]


def _same_affine(a: E.PrimExpr, b: E.PrimExpr) -> bool:
    """Whether ``a - b`` is affine and identically zero."""
    if a.dtype == "float32" or b.dtype == "float32":
        return False
    left = _affine(a)
    right = _affine(b)
    if left is None or right is None or left[1] != right[1]:
        return False
    ca, cb = left[0], right[0]
    return all(cb.get(v, 0) == c for v, c in ca.items()) and all(
        ca.get(v, 0) == c for v, c in cb.items()
    )


def _affine_canonical(node: E.BinaryOp) -> Optional[E.PrimExpr]:
    """``c1*v1 + ... + cn*vn + c0`` (vars ordered by name) if that is smaller.

    Syntactically different but equal index expressions (``io*16 + ii -
    io*16``) collapse to one spelling.
    """
    if not node.dtype.startswith("int"):
        return None
    dec = _affine(node)
    if dec is None:
        return None
    coeffs, constant, size = dec
    n_terms = canonical_size = 0
    for c in coeffs.values():
        if c:
            n_terms += 1
            canonical_size += 1 if c == 1 else 3
    if not n_terms:
        return E.IntImm(constant)
    canonical_size += n_terms - 1 + (2 if constant else 0)
    if canonical_size >= size:
        return None
    terms = sorted(
        ((v, c) for v, c in coeffs.items() if c != 0), key=lambda t: t[0].name
    )
    expr: Optional[E.PrimExpr] = None
    for var, c in terms:
        term = var if c == 1 else E.Mul(var, E.IntImm(c))
        expr = term if expr is None else E.Add(expr, term)
    if constant:
        expr = E.Add(expr, E.IntImm(constant))
    return expr


_BOOL = "bool"

_INT_FOLD = {
    E.Add: lambda a, b: E.IntImm(a + b),
    E.Sub: lambda a, b: E.IntImm(a - b),
    E.Mul: lambda a, b: E.IntImm(a * b),
    E.FloorDiv: lambda a, b: E.IntImm(a // b) if b != 0 else None,
    E.FloorMod: lambda a, b: E.IntImm(a % b) if b != 0 else None,
    E.Min: lambda a, b: E.IntImm(min(a, b)),
    E.Max: lambda a, b: E.IntImm(max(a, b)),
    E.LT: lambda a, b: E.IntImm(1 if a < b else 0, _BOOL),
    E.LE: lambda a, b: E.IntImm(1 if a <= b else 0, _BOOL),
    E.GT: lambda a, b: E.IntImm(1 if a > b else 0, _BOOL),
    E.GE: lambda a, b: E.IntImm(1 if a >= b else 0, _BOOL),
    E.EQ: lambda a, b: E.IntImm(1 if a == b else 0, _BOOL),
    E.NE: lambda a, b: E.IntImm(1 if a != b else 0, _BOOL),
    E.And: lambda a, b: E.IntImm(1 if (a and b) else 0, _BOOL),
}

_FLOAT_FOLD = {
    E.Add: lambda a, b: E.FloatImm(a + b),
    E.Sub: lambda a, b: E.FloatImm(a - b),
    E.Mul: lambda a, b: E.FloatImm(a * b),
    E.Min: lambda a, b: E.FloatImm(min(a, b)),
    E.Max: lambda a, b: E.FloatImm(max(a, b)),
}


# Identity rules, one per operator.  Each sees a node whose operands are
# already normal forms and returns the replacement, or ``None`` to keep it.


def _rule_add(node: E.Add) -> Optional[E.PrimExpr]:
    if is_const_int(node.a, 0):
        return node.b
    if is_const_int(node.b, 0):
        return node.a
    return None


def _rule_sub(node: E.Sub) -> Optional[E.PrimExpr]:
    # an integer ``x - x`` is already 0: _affine_canonical folds it
    return node.a if is_const_int(node.b, 0) else None


def _rule_mul(node: E.Mul) -> Optional[E.PrimExpr]:
    # x*0 is not 0 for a float x (inf, NaN), and the result keeps the dtype
    has_zero = is_const_int(node.a, 0) or is_const_int(node.b, 0)
    if has_zero and node.dtype.startswith(("int", "uint")):
        return E.IntImm(0, node.dtype)
    for imm, other in ((node.a, node.b), (node.b, node.a)):
        if is_const_int(imm, 1) and other.dtype == node.dtype:
            return other
    return None


def _rule_floordiv(node: E.FloorDiv) -> Optional[E.PrimExpr]:
    if is_const_int(node.b, 1):
        return node.a
    if is_const_int(node.a, 0):
        return E.IntImm(0)
    return None


def _rule_floormod(node: E.FloorMod) -> Optional[E.PrimExpr]:
    if is_const_int(node.b, 1) or is_const_int(node.a, 0):
        return E.IntImm(0)
    return None


def _rule_minmax(node: E.BinaryOp) -> Optional[E.PrimExpr]:
    return node.a if _same_affine(node.a, node.b) else None


def _rule_and(node: E.And) -> Optional[E.PrimExpr]:
    for x, y in ((node.a, node.b), (node.b, node.a)):
        if is_const_int(x, 1):
            return y
        if is_const_int(x, 0):
            return E.IntImm(0, _BOOL)
    return None


def _rule_equal_when_same(node: E.CmpOp) -> Optional[E.PrimExpr]:
    return E.IntImm(1, _BOOL) if _same_affine(node.a, node.b) else None


def _rule_unequal_when_same(node: E.CmpOp) -> Optional[E.PrimExpr]:
    return E.IntImm(0, _BOOL) if _same_affine(node.a, node.b) else None


_BINARY_RULE = {
    E.Add: _rule_add,
    E.Sub: _rule_sub,
    E.Mul: _rule_mul,
    E.FloorDiv: _rule_floordiv,
    E.FloorMod: _rule_floormod,
    E.Min: _rule_minmax,
    E.Max: _rule_minmax,
    E.And: _rule_and,
    E.LE: _rule_equal_when_same,
    E.GE: _rule_equal_when_same,
    E.EQ: _rule_equal_when_same,
    E.LT: _rule_unequal_when_same,
    E.GT: _rule_unequal_when_same,
    E.NE: _rule_unequal_when_same,
}


def _rewrite_binary(node: E.BinaryOp) -> E.PrimExpr:
    kind = type(node)
    a, b = node.a, node.b
    fold = None
    if type(a) is E.IntImm and type(b) is E.IntImm:
        fold = _INT_FOLD.get(kind)
    elif type(a) is E.FloatImm and type(b) is E.FloatImm:
        fold = _FLOAT_FOLD.get(kind)
    if fold is not None:
        folded = fold(a.value, b.value)
        if folded is not None:
            return folded
    if kind is E.Add or kind is E.Sub or kind is E.Mul:
        canonical = _affine_canonical(node)
        if canonical is not None:
            return canonical
    rule = _BINARY_RULE.get(kind)
    replaced = rule(node) if rule is not None else None
    return node if replaced is None else replaced


def _simplify_load(node: E.BufferLoad) -> E.PrimExpr:
    idx = [simplify(i) for i in node.indices]
    if all(n is o for n, o in zip(idx, node.indices)):
        return node
    return E.BufferLoad(node.buffer, idx)


def simplify(expr: E.PrimExpr) -> E.PrimExpr:
    """Simplify ``expr`` (constant folding + affine identities).

    One bottom-up pass.  Results are marked as normal forms, so simplifying
    an expression again — or one built around simplified parts — does not
    walk what is already done.
    """
    if expr._normal:
        return expr
    if isinstance(expr, E.BinaryOp):
        a = simplify(expr.a)
        b = simplify(expr.b)
        if a is not expr.a or b is not expr.b:
            expr = type(expr)(a, b)
        result = _rewrite_binary(expr)
    elif type(expr) is E.BufferLoad:
        result = _simplify_load(expr)
    elif isinstance(expr, E.UnaryOp):
        a = simplify(expr.a)
        result = expr if a is expr.a else type(expr)(a)
    elif type(expr) is E.Select:
        # Its arms stay: a constant condition does not fold, since the
        # taken arm's value would lose the select's dtype.
        parts = [simplify(c) for c in expr.children()]
        changed = any(n is not o for n, o in zip(parts, expr.children()))
        result = E.Select(*parts) if changed else expr
    else:  # a leaf read back from a pickle, which drops the mark
        result = expr
    result._normal = True
    return result


def prove_lt(lhs: E.PrimExpr, rhs: E.PrimExpr, var_ranges) -> Optional[bool]:
    """Try to prove ``lhs < rhs`` given variable ranges.

    ``var_ranges`` maps :class:`Var` → ``(min, extent)``.  Returns ``True``
    (always), ``False`` (never) or ``None`` (depends on the iteration point).
    Uses interval arithmetic; see :mod:`repro.tir.interval`.
    """
    env = {v: Interval(lo, lo + ext - 1) for v, (lo, ext) in var_ranges.items()}
    diff = eval_interval(E.Sub(lhs, rhs), env)
    if diff is None:
        return None
    if diff.hi is not None and diff.hi < 0:
        return True
    if diff.lo is not None and diff.lo >= 0:
        return False
    return None
