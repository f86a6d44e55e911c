"""Properties of the simplifier, the per-node fact caches and symbolic
bounds, on random integer expression trees over non-negative variables."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.lowering import BoundsError, infer_region, symbolic_bound
from repro.tir import (
    Add,
    FloorDiv,
    FloorMod,
    IntImm,
    Max,
    Min,
    Mul,
    Sub,
    Var,
    affine_coeffs,
    const_int,
    expr_to_str,
    free_vars,
    post_order_exprs,
    simplify,
)
from repro.tir.simplify import _affine

VARS = [Var(name) for name in "wxyz"]
_SETTINGS = settings(max_examples=120, deadline=None)


def _trees(products: bool):
    """Integer trees; ``products`` also allows variable*variable."""
    leaves = st.one_of(
        st.sampled_from(VARS), st.integers(-6, 20).map(IntImm)
    )
    positive = st.integers(1, 9).map(IntImm)
    constant = st.integers(-4, 9).map(IntImm)

    def grow(sub):
        by_const = st.builds(Mul, sub, constant) | st.builds(Mul, constant, sub)
        return st.one_of(
            st.builds(Add, sub, sub),
            st.builds(Sub, sub, sub),
            st.builds(Mul, sub, sub) if products else by_const,
            by_const,
            st.builds(FloorDiv, sub, positive),
            st.builds(FloorMod, sub, positive),
            st.builds(Min, sub, sub),
            st.builds(Max, sub, sub),
        )

    return st.recursive(leaves, grow, max_leaves=12)


ENVS = st.fixed_dictionaries({v: st.integers(0, 40) for v in VARS})

_OPS = {
    Add: lambda a, b: a + b,
    Sub: lambda a, b: a - b,
    Mul: lambda a, b: a * b,
    FloorDiv: lambda a, b: a // b,
    FloorMod: lambda a, b: a % b,
    Min: min,
    Max: max,
}


def evaluate(expr, env):
    if isinstance(expr, IntImm):
        return expr.value
    if isinstance(expr, Var):
        return env[expr]
    return _OPS[type(expr)](evaluate(expr.a, env), evaluate(expr.b, env))


def fresh_copy(expr):
    """The same tree from new nodes: no cached fact, no normal-form mark."""
    if isinstance(expr, IntImm):
        return IntImm(expr.value, expr.dtype)
    if isinstance(expr, Var):
        return expr
    return type(expr)(fresh_copy(expr.a), fresh_copy(expr.b))


def reference_vars(expr):
    """From-scratch walk: distinct variables in first-seen order."""
    seen = []
    for sub in post_order_exprs(expr):
        if isinstance(sub, Var) and sub not in seen:
            seen.append(sub)
    return tuple(seen)


def reference_affine(expr):
    """From-scratch affine decomposition (one walk per query)."""
    coeffs = {}

    def walk(node, scale):
        if isinstance(node, IntImm):
            return node.value * scale
        if isinstance(node, Var):
            coeffs[node] = coeffs.get(node, 0) + scale
            return 0
        if isinstance(node, Add):
            return walk(node.a, scale) + walk(node.b, scale)
        if isinstance(node, Sub):
            return walk(node.a, scale) + walk(node.b, -scale)
        if isinstance(node, Mul) and isinstance(node.b, IntImm):
            return walk(node.a, scale * node.b.value)
        if isinstance(node, Mul) and isinstance(node.a, IntImm):
            return walk(node.b, scale * node.a.value)
        raise ValueError("not affine")

    try:
        constant = walk(expr, 1)
    except ValueError:
        return None
    return {v: c for v, c in coeffs.items() if c != 0}, constant


@_SETTINGS
@given(_trees(products=True), ENVS)
def test_simplify_preserves_the_value(expr, env):
    assert evaluate(simplify(expr), env) == evaluate(expr, env)


@_SETTINGS
@given(_trees(products=True))
def test_simplify_is_idempotent(expr):
    once = simplify(expr)
    assert simplify(once) is once
    # ... and not only because the result is marked: an unmarked copy of
    # the result is already a fixed point.
    assert expr_to_str(simplify(fresh_copy(once))) == expr_to_str(once)


@_SETTINGS
@given(_trees(products=True))
def test_cached_facts_equal_a_recomputation(expr):
    simplify(expr)  # fills caches on the way
    for tree in (expr, simplify(expr)):
        for node in post_order_exprs(tree):
            assert free_vars(node) == reference_vars(node)
            assert affine_coeffs(node) == reference_affine(node)
            cached = _affine(node)
            if cached is not None:
                assert cached[2] == sum(1 for _ in post_order_exprs(node))
            if node._normal:
                assert expr_to_str(simplify(fresh_copy(node))) == expr_to_str(node)


@_SETTINGS
@given(
    _trees(products=False),
    st.lists(st.integers(1, 4), min_size=2, max_size=2),
    st.lists(st.integers(0, 12), min_size=2, max_size=2),
)
def test_symbolic_bounds_bracket_every_inner_point(expr, extents, outer_values):
    inner = dict(zip(VARS[:2], extents))
    outer = dict(zip(VARS[2:], outer_values))
    try:
        lo = symbolic_bound(expr, inner, want_lo=True)
        hi = symbolic_bound(expr, inner, want_lo=False)
    except BoundsError:
        assume(False)
    assert not set(free_vars(lo) + free_vars(hi)) & set(inner)
    lo_value, hi_value = evaluate(lo, outer), evaluate(hi, outer)
    for point in itertools.product(*(range(n) for n in extents)):
        value = evaluate(expr, {**outer, **dict(zip(VARS[:2], point))})
        assert lo_value <= value <= hi_value


@_SETTINGS
@given(_trees(products=False), st.lists(st.integers(1, 5), min_size=2, max_size=2))
def test_region_extent_matches_the_symbolic_difference(expr, extents):
    """``infer_region`` sizes affine indices without building the upper
    bound; the size must be the one ``hi - lo + 1`` simplifies to."""
    inner = dict(zip(VARS[:2], extents))
    try:
        lo = symbolic_bound(expr, inner, want_lo=True)
        hi = symbolic_bound(expr, inner, want_lo=False)
    except BoundsError:
        assume(False)
    expected = const_int(simplify(Add(Sub(hi, lo), IntImm(1))))
    try:
        base, (extent,) = infer_region([[expr]], inner)
    except BoundsError:
        assert expected is None or expected <= 0
        return
    assert extent == expected
    assert expr_to_str(base[0]) == expr_to_str(lo)
