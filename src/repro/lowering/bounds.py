"""Symbolic bounds inference for cache regions and per-DPU tiles.

Given an index expression over loop variables, computes its minimum /
maximum over a designated set of *inner* variables (the loops below an
attachment point), leaving outer variables symbolic.  All loop variables
are non-negative, which the rules below assume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..tir import (
    Add,
    FloorDiv,
    FloorMod,
    IntImm,
    Max,
    Min,
    Mul,
    PrimExpr,
    Sub,
    Var,
    affine_coeffs,
    const_int,
    free_vars,
    simplify,
)

__all__ = ["BoundsError", "symbolic_bound", "infer_region"]


class BoundsError(Exception):
    """The access pattern is outside the supported (quasi-affine) class."""


def _has_inner(expr: PrimExpr, inner: Dict[Var, int]) -> bool:
    return not inner.keys().isdisjoint(free_vars(expr))


def symbolic_bound(expr: PrimExpr, inner: Dict[Var, int], want_lo: bool) -> PrimExpr:
    """Lower (``want_lo``) or upper bound of ``expr`` over inner vars.

    ``inner`` maps each inner variable to its extent (range ``[0, ext)``).
    The result is an expression over the remaining (outer) variables.
    """
    result = _bound(expr, inner, want_lo)
    return simplify(result)


def _bound(expr: PrimExpr, inner: Dict[Var, int], lo: bool) -> PrimExpr:
    if not _has_inner(expr, inner):
        return expr
    if isinstance(expr, Var):
        return IntImm(0) if lo else IntImm(inner[expr] - 1)
    if isinstance(expr, Add):
        return Add(_bound(expr.a, inner, lo), _bound(expr.b, inner, lo))
    if isinstance(expr, Sub):
        return Sub(_bound(expr.a, inner, lo), _bound(expr.b, inner, not lo))
    if isinstance(expr, Mul):
        ca = const_int(expr.a)
        cb = const_int(expr.b)
        if cb is not None:
            side, c = expr.a, cb
        elif ca is not None:
            side, c = expr.b, ca
        else:
            # var*var products: one side must be inner-free; loop vars and
            # extents are non-negative, so bounds distribute.
            if not _has_inner(expr.a, inner):
                return Mul(expr.a, _bound(expr.b, inner, lo))
            if not _has_inner(expr.b, inner):
                return Mul(_bound(expr.a, inner, lo), expr.b)
            raise BoundsError(f"non-affine product of inner variables: {expr!r}")
        return Mul(_bound(side, inner, lo if c >= 0 else not lo), IntImm(c))
    if isinstance(expr, FloorDiv):
        c = const_int(expr.b)
        if c is None or c <= 0:
            raise BoundsError(f"floordiv by non-constant: {expr!r}")
        return FloorDiv(_bound(expr.a, inner, lo), IntImm(c))
    if isinstance(expr, FloorMod):
        c = const_int(expr.b)
        if c is None or c <= 0:
            raise BoundsError(f"floormod by non-constant: {expr!r}")
        return IntImm(0) if lo else IntImm(c - 1)
    if isinstance(expr, Min):
        return Min(_bound(expr.a, inner, lo), _bound(expr.b, inner, lo))
    if isinstance(expr, Max):
        return Max(_bound(expr.a, inner, lo), _bound(expr.b, inner, lo))
    raise BoundsError(f"unsupported expression in bounds inference: {expr!r}")


def infer_region(
    index_tuples: Sequence[Sequence[PrimExpr]],
    inner: Dict[Var, int],
) -> Tuple[List[PrimExpr], List[int]]:
    """Rectangular region covering all ``index_tuples`` over inner vars.

    Returns ``(base, extents)`` where ``base[d]`` is a symbolic origin and
    ``extents[d]`` a constant tile size.  All tuples must agree on the
    region (ATiM's sketches guarantee a single access pattern per cached
    buffer); disagreement raises :class:`BoundsError`.
    """
    if not index_tuples:
        raise BoundsError("no accesses to infer a region from")
    ndim = len(index_tuples[0])
    base: List[PrimExpr] = []
    extents: List[int] = []
    for d in range(ndim):
        lo_exprs = [symbolic_bound(t[d], inner, want_lo=True) for t in index_tuples]
        lo = lo_exprs[0]
        for other in lo_exprs[1:]:
            if const_int(simplify(Sub(other, lo))) != 0:
                raise BoundsError(
                    "accesses disagree on cache region origin in dimension"
                    f" {d}: {lo!r} vs {other!r}"
                )
        extent_candidates = []
        for t in index_tuples:
            ext = _extent(t[d], lo, inner)
            if ext is None:
                raise BoundsError(
                    f"cache region extent is not constant in dimension {d}"
                )
            extent_candidates.append(ext)
        ext = max(extent_candidates)
        if ext <= 0:
            raise BoundsError(f"empty cache region in dimension {d}")
        base.append(lo)
        extents.append(ext)
    return base, extents


def _extent(index: PrimExpr, lo: PrimExpr, inner: Dict[Var, int]) -> Optional[int]:
    """``max(index) - lo + 1`` over the inner variables, if constant."""
    if index.dtype == "int32" and affine_coeffs(index) is not None:
        # outer terms cancel against ``lo``: no upper bound to build
        return _affine_span(index, inner) + 1
    hi = symbolic_bound(index, inner, want_lo=False)
    return const_int(simplify(Add(Sub(hi, lo), IntImm(1))))


def _affine_span(expr: PrimExpr, inner: Dict[Var, int]) -> int:
    """``max - min`` of an affine tree (sums and constant multiples of
    variables) over the inner variables, following :func:`_bound`."""
    if not _has_inner(expr, inner):
        return 0
    if isinstance(expr, Var):
        return inner[expr] - 1
    if isinstance(expr, Mul):
        if isinstance(expr.b, IntImm):
            return abs(expr.b.value) * _affine_span(expr.a, inner)
        return abs(expr.a.value) * _affine_span(expr.b, inner)
    return _affine_span(expr.a, inner) + _affine_span(expr.b, inner)
