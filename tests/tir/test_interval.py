"""Interval arithmetic: soundness of eval_interval."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tir import (
    And,
    Buffer,
    BufferLoad,
    EQ,
    FloatImm,
    Interval,
    IntImm,
    Max,
    Min,
    NE,
    Var,
    eval_interval,
)


class TestIntervalOps:
    def test_point(self):
        iv = Interval.point(5)
        assert iv.is_point and iv.lo == iv.hi == 5

    def test_add(self):
        r = Interval(0, 3) + Interval(10, 20)
        assert (r.lo, r.hi) == (10, 23)

    def test_sub(self):
        r = Interval(0, 3) - Interval(1, 2)
        assert (r.lo, r.hi) == (-2, 2)

    def test_mul_positive(self):
        r = Interval(1, 3) * Interval(2, 4)
        assert (r.lo, r.hi) == (2, 12)

    def test_mul_signed(self):
        r = Interval(-2, 3) * Interval(-1, 4)
        assert (r.lo, r.hi) == (-8, 12)

    def test_floordiv(self):
        r = Interval(0, 10).floordiv(Interval.point(3))
        assert (r.lo, r.hi) == (0, 3)

    def test_mul_with_an_unbounded_side(self):
        r = Interval(None, 5) * Interval(1, 2)
        assert r.lo is None and r.hi is None
        r = Interval(None, 5) * Interval.point(0)
        assert (r.lo, r.hi) == (0, 0)

    def test_divmod_by_a_range_is_unbounded(self):
        for r in (
            Interval(0, 10).floordiv(Interval(1, 2)),
            Interval(0, 10).floormod(Interval(1, 2)),
        ):
            assert r.lo is None and r.hi is None

    def test_floordiv_negative_divisor(self):
        r = Interval(0, 10).floordiv(Interval.point(-2))
        assert (r.lo, r.hi) == (-5, 0)

    def test_floormod_full_range(self):
        r = Interval(0, 100).floormod(Interval.point(8))
        assert (r.lo, r.hi) == (0, 7)

    def test_floormod_same_block(self):
        r = Interval(17, 19).floormod(Interval.point(8))
        assert (r.lo, r.hi) == (1, 3)

    def test_min_max_with(self):
        a, b = Interval(0, 10), Interval(5, 20)
        assert (a.min_with(b).lo, a.min_with(b).hi) == (0, 10)
        assert (a.max_with(b).lo, a.max_with(b).hi) == (5, 20)

    def test_unbounded_add(self):
        r = Interval(None, 5) + Interval(1, 1)
        assert r.lo is None and r.hi == 6

    def test_unbounded_sub(self):
        r = Interval(None, 5) - Interval(1, 2)
        assert r.lo is None and r.hi == 4

    def test_min_with_an_unbounded_side(self):
        # min's lower end is unbounded if either is; its upper end is
        # whichever side has one
        r = Interval(None, 10).min_with(Interval(0, 5))
        assert r.lo is None and r.hi == 5
        assert Interval(0, None).min_with(Interval(0, 5)).hi == 5
        assert Interval(0, 5).min_with(Interval(0, None)).hi == 5


class TestEvalInterval:
    def test_var_lookup(self):
        i = Var("i")
        r = eval_interval(i, {i: Interval(0, 7)})
        assert (r.lo, r.hi) == (0, 7)

    def test_missing_var_unbounded(self):
        r = eval_interval(Var("i"), {})
        assert r.lo is None and r.hi is None

    def test_affine(self):
        i, j = Var("i"), Var("j")
        env = {i: Interval(0, 3), j: Interval(0, 15)}
        r = eval_interval(i * 16 + j, env)
        assert (r.lo, r.hi) == (0, 63)

    def test_min_expr(self):
        i = Var("i")
        r = eval_interval(Min(i, IntImm(10)), {i: Interval(0, 100)})
        assert (r.lo, r.hi) == (0, 10)

    def test_max_expr(self):
        i = Var("i")
        r = eval_interval(Max(i, IntImm(10)), {i: Interval(0, 100)})
        assert (r.lo, r.hi) == (10, 100)

    def test_cmp_always_true(self):
        i = Var("i")
        r = eval_interval(i < 100, {i: Interval(0, 10)})
        assert r.is_point and r.lo == 1

    def test_cmp_always_false(self):
        i = Var("i")
        r = eval_interval(i < 0, {i: Interval(0, 10)})
        assert r.is_point and r.lo == 0

    def test_cmp_mixed(self):
        i = Var("i")
        r = eval_interval(i < 5, {i: Interval(0, 10)})
        assert not r.is_point

    def test_eq_disjoint(self):
        i = Var("i")
        for other in (100, -5):
            r = eval_interval(EQ(i, IntImm(other)), {i: Interval(0, 10)})
            assert r.is_point and r.lo == 0

    def test_eq_points(self):
        i = Var("i")
        for value, want in ((3, 1), (4, 0)):
            r = eval_interval(EQ(i, IntImm(3)), {i: Interval.point(value)})
            assert r.is_point and r.lo == want

    def test_le_ge(self):
        i = Var("i")
        env = {i: Interval(0, 10)}
        assert eval_interval(i <= 10, env).lo == 1
        assert eval_interval(i >= 11, env).hi == 0
        assert not eval_interval(i <= 5, env).is_point

    def test_a_load_or_a_float_has_no_interval(self):
        i = Var("i")
        load = BufferLoad(Buffer("A", (4,), "int32"), [i])
        assert eval_interval(load + 1, {i: Interval(0, 3)}) is None
        assert eval_interval(FloatImm(1.0), {}) is None

    def test_ne(self):
        i = Var("i")
        r = eval_interval(NE(i, IntImm(100)), {i: Interval(0, 10)})
        assert r.is_point and r.lo == 1

    def test_and(self):
        i = Var("i")
        env = {i: Interval(0, 10)}
        t = eval_interval(And(i < 100, i < 200), env)
        assert t.is_point and t.lo == 1
        f = eval_interval(And(i < 100, i > 100), env)
        assert f.is_point and f.lo == 0


@settings(max_examples=60, deadline=None)
@given(
    ilo=st.integers(0, 20),
    iext=st.integers(1, 20),
    jlo=st.integers(0, 20),
    jext=st.integers(1, 20),
    a=st.integers(-8, 8),
    b=st.integers(-8, 8),
    c=st.integers(-50, 50),
)
def test_interval_soundness_affine(ilo, iext, jlo, jext, a, b, c):
    """Interval of a*i + b*j + c contains every concrete value."""
    i, j = Var("i"), Var("j")
    expr = i * a + j * b + c
    env = {
        i: Interval(ilo, ilo + iext - 1),
        j: Interval(jlo, jlo + jext - 1),
    }
    r = eval_interval(expr, env)
    assert r is not None
    for iv in (ilo, ilo + iext - 1):
        for jv in (jlo, jlo + jext - 1):
            value = a * iv + b * jv + c
            assert r.lo <= value <= r.hi


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(0, 30),
    ext=st.integers(1, 30),
    d=st.integers(1, 9),
)
def test_interval_soundness_divmod(lo, ext, d):
    i = Var("i")
    env = {i: Interval(lo, lo + ext - 1)}
    rdiv = eval_interval(i // d, env)
    rmod = eval_interval(i % d, env)
    for iv in range(lo, lo + ext):
        assert rdiv.lo <= iv // d <= rdiv.hi
        assert rmod.lo <= iv % d <= rmod.hi
