"""Constant folding, affine canonicalization and proving."""

from repro.tir import (
    Add,
    And,
    Buffer,
    BufferLoad,
    IntImm,
    Max,
    Min,
    Mul,
    Sub,
    Var,
    affine_coeffs,
    const_int,
    is_const_int,
    prove_lt,
    simplify,
)


def v(name="i"):
    return Var(name)


class TestConstantFolding:
    def test_add(self):
        assert const_int(simplify(IntImm(2) + IntImm(3))) == 5

    def test_mul(self):
        assert const_int(simplify(IntImm(4) * IntImm(5))) == 20

    def test_floordiv(self):
        assert const_int(simplify(IntImm(7) // IntImm(2))) == 3

    def test_floormod(self):
        assert const_int(simplify(IntImm(7) % IntImm(3))) == 1

    def test_min_max(self):
        assert const_int(simplify(Min(IntImm(2), IntImm(9)))) == 2
        assert const_int(simplify(Max(IntImm(2), IntImm(9)))) == 9

    def test_comparisons(self):
        assert const_int(simplify(IntImm(1) < IntImm(2))) == 1
        assert const_int(simplify(IntImm(3) < IntImm(2))) == 0

    def test_nested_folding(self):
        e = (IntImm(2) + IntImm(3)) * (IntImm(1) + IntImm(1))
        assert const_int(simplify(e)) == 10

    def test_float_folding(self):
        from repro.tir import FloatImm

        e = simplify(FloatImm(1.5) + FloatImm(2.5))
        assert isinstance(e, FloatImm) and e.value == 4.0


class TestIdentities:
    def test_add_zero(self):
        assert simplify(v() + 0) is not None
        assert simplify(v() + 0).__class__.__name__ == "Var"

    def test_mul_one(self):
        assert isinstance(simplify(v() * 1), Var)

    def test_mul_zero(self):
        assert const_int(simplify(v() * 0)) == 0

    def test_mul_zero_keeps_float_expression(self):
        # x*0 is not 0 for inf/NaN, and must never turn into an int32 0
        x = Var("x", "float32")
        for e in (Mul(x, IntImm(0)), Mul(IntImm(0), x)):
            out = simplify(e)
            assert out.dtype == "float32"
            assert isinstance(out, Mul)

    def test_mul_zero_immediate_has_the_expression_dtype(self):
        x = Var("x", "int64")
        out = simplify(Mul(x // 2, IntImm(0, "int64")))
        assert const_int(out) == 0 and out.dtype == "int64"

    def test_mul_one_of_float_keeps_dtype(self):
        x = Var("x", "float32")
        assert simplify(Mul(x, IntImm(1))) is x

    def test_sub_self_cancels(self):
        x = v()
        assert const_int(simplify(x - x)) == 0

    def test_div_by_one(self):
        assert isinstance(simplify(v() // 1), Var)

    def test_zero_floordiv_is_zero(self):
        assert const_int(simplify(IntImm(0) // v())) == 0

    def test_zero_plus_a_load_is_the_load(self):
        load = BufferLoad(Buffer("A", (4,)), [v()])
        assert simplify(IntImm(0) + load) is load

    def test_mod_by_one(self):
        assert const_int(simplify(v() % 1)) == 0

    def test_and_true(self):
        c = v() < 5
        assert simplify(And(IntImm(1, "bool"), c)) is c

    def test_and_false(self):
        c = v() < 5
        assert const_int(simplify(And(IntImm(0, "bool"), c))) == 0

    def test_cmp_equal_operands(self):
        x = v()
        assert const_int(simplify(x <= x)) == 1
        assert const_int(simplify(x < x)) == 0


class TestNormalForms:
    def test_resimplifying_returns_the_same_node(self):
        i, j = v("i"), v("j")
        once = simplify((i * 16 + j) * 2 - i)
        assert simplify(once) is once

    def test_unchanged_input_is_returned_itself(self):
        i, j = v("i"), v("j")
        e = i * 16 + j  # already canonical
        assert simplify(e) is e

    def test_simplified_parts_are_not_rebuilt(self):
        i, j = v("i"), v("j")
        part = simplify(j + i * 4 + 0)
        whole = simplify(Min(part, IntImm(7)))
        assert whole.a is part


class TestAffine:
    def test_affine_coeffs_simple(self):
        i, j = v("i"), v("j")
        coeffs, c0 = affine_coeffs(i * 16 + j + 3)
        assert coeffs[i] == 16 and coeffs[j] == 1 and c0 == 3

    def test_affine_coeffs_sub(self):
        i = v("i")
        coeffs, c0 = affine_coeffs(IntImm(10) - i * 2)
        assert coeffs[i] == -2 and c0 == 10

    def test_affine_coeffs_rejects_div(self):
        assert affine_coeffs(v() // 2) is None

    def test_affine_coeffs_rejects_var_product(self):
        assert affine_coeffs(v("i") * v("j")) is None

    def test_canonicalization_cancels_terms(self):
        i, j = v("i"), v("j")
        e = simplify((i * 16 + j) - i * 16)
        assert isinstance(e, Var) and e is j

    def test_canonicalization_merges_constants(self):
        i = v("i")
        e = simplify(i + 3 + i + 4)
        coeffs, c0 = affine_coeffs(e)
        assert coeffs[i] == 2 and c0 == 7

    def test_extent_computation_pattern(self):
        # hi - lo + 1 for a tiled index: the bounds-inference workhorse.
        io = v("io")
        lo = io * 16
        hi = io * 16 + 15
        assert const_int(simplify(hi - lo + 1)) == 16

    def test_is_const_int(self):
        assert is_const_int(IntImm(4))
        assert is_const_int(IntImm(4), 4)
        assert not is_const_int(IntImm(4), 5)
        assert not is_const_int(v())


class TestProveLt:
    def test_always_true(self):
        i = v()
        assert prove_lt(i, IntImm(10), {i: (0, 10)}) is True

    def test_always_false(self):
        i = v()
        assert prove_lt(i + 10, IntImm(10), {i: (0, 5)}) is False

    def test_undecidable(self):
        i = v()
        assert prove_lt(i, IntImm(5), {i: (0, 10)}) is None
        load = BufferLoad(Buffer("A", (4,), "int32"), [i])
        assert prove_lt(load, IntImm(5), {i: (0, 4)}) is None

    def test_affine_combination(self):
        i, j = v("i"), v("j")
        ranges = {i: (0, 4), j: (0, 16)}
        assert prove_lt(i * 16 + j, IntImm(64), ranges) is True
        assert prove_lt(i * 16 + j, IntImm(63), ranges) is None
