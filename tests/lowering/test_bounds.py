"""Symbolic bounds inference."""

import pytest

from repro.lowering import BoundsError, infer_region, symbolic_bound
from repro.tir import IntImm, Min, Var, const_int, simplify


class TestSymbolicBound:
    def test_inner_var_range(self):
        i = Var("i")
        lo = symbolic_bound(i, {i: 16}, want_lo=True)
        hi = symbolic_bound(i, {i: 16}, want_lo=False)
        assert const_int(lo) == 0 and const_int(hi) == 15

    def test_outer_var_stays_symbolic(self):
        i, o = Var("i"), Var("o")
        expr = o * 16 + i
        lo = symbolic_bound(expr, {i: 16}, want_lo=True)
        hi = symbolic_bound(expr, {i: 16}, want_lo=False)
        assert const_int(simplify(hi - lo)) == 15

    def test_negative_coefficient(self):
        i = Var("i")
        expr = IntImm(100) - i * 2
        lo = symbolic_bound(expr, {i: 10}, want_lo=True)
        hi = symbolic_bound(expr, {i: 10}, want_lo=False)
        assert const_int(lo) == 82 and const_int(hi) == 100

    def test_floordiv(self):
        i = Var("i")
        hi = symbolic_bound(i // 4, {i: 16}, want_lo=False)
        assert const_int(hi) == 3

    def test_floormod(self):
        i = Var("i")
        hi = symbolic_bound(i % 8, {i: 100}, want_lo=False)
        assert const_int(hi) == 7

    def test_min_expr(self):
        i = Var("i")
        hi = symbolic_bound(Min(i, IntImm(5)), {i: 100}, want_lo=False)
        assert const_int(simplify(hi)) == 5

    def test_nonaffine_product_rejected(self):
        i, j = Var("i"), Var("j")
        with pytest.raises(BoundsError):
            symbolic_bound(i * j, {i: 4, j: 4}, want_lo=True)

    def test_product_with_outer_var_allowed(self):
        i, o = Var("i"), Var("o")
        hi = symbolic_bound(o * i, {i: 4}, want_lo=False)
        # o * 3 symbolically.
        from repro.tir import collect_vars

        assert o in collect_vars(hi)

    def test_product_with_outer_var_on_the_right(self):
        i, o = Var("i"), Var("o")
        hi = symbolic_bound(i * o, {i: 4}, want_lo=False)
        assert const_int(simplify(hi - o * 3)) == 0


class TestInferRegion:
    def test_tile_region(self):
        i, o = Var("i"), Var("o")
        base, extents = infer_region([[o * 16 + i]], {i: 16})
        assert extents == [16]

    def test_two_dims(self):
        r, c, ro = Var("r"), Var("c"), Var("ro")
        base, extents = infer_region([[ro * 4 + r, c]], {r: 4, c: 32})
        assert extents == [4, 32]

    def test_point_region(self):
        o = Var("o")
        base, extents = infer_region([[o]], {})
        assert extents == [1]

    def test_multiple_accesses_same_base(self):
        i, o = Var("i"), Var("o")
        base, extents = infer_region(
            [[o * 16 + i], [o * 16 + 0]], {i: 16}
        )
        assert extents == [16]

    def test_disagreeing_bases_rejected(self):
        i, o = Var("i"), Var("o")
        with pytest.raises(BoundsError):
            infer_region([[o * 16 + i], [o * 8 + i]], {i: 16})

    def test_empty_accesses_rejected(self):
        with pytest.raises(BoundsError):
            infer_region([], {})

    def test_non_constant_extent_rejected(self):
        i, o = Var("i"), Var("o")
        # extent depends on the outer var o -> not rectangular-constant
        with pytest.raises(BoundsError):
            infer_region([[o * i]], {i: 4})
