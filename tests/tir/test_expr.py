"""Expression-node construction and operator overloading."""

import pytest

from repro import tir
from repro.tir import (
    Add,
    And,
    BufferLoad,
    Buffer,
    FloatImm,
    FloorDiv,
    FloorMod,
    IntImm,
    LT,
    Mul,
    Sub,
    Var,
    all_of,
    as_expr,
    const,
)


class TestConstruction:
    def test_var_has_name_and_dtype(self):
        v = Var("i")
        assert v.name == "i"
        assert v.dtype == "int32"

    def test_int_imm_value(self):
        assert IntImm(42).value == 42

    def test_float_imm_value(self):
        assert FloatImm(1.5).value == 1.5

    def test_const_int(self):
        c = const(3)
        assert isinstance(c, IntImm) and c.value == 3

    def test_const_float(self):
        c = const(2.5, "float32")
        assert isinstance(c, FloatImm) and c.value == 2.5

    def test_const_bool(self):
        c = const(True, "bool")
        assert c.dtype == "bool" and c.value == 1

    def test_as_expr_passthrough(self):
        v = Var("x")
        assert as_expr(v) is v

    def test_as_expr_int(self):
        assert isinstance(as_expr(7), IntImm)

    def test_as_expr_bool(self):
        c = as_expr(True)
        assert isinstance(c, IntImm) and c.dtype == "bool" and c.value == 1

    def test_as_expr_float(self):
        assert isinstance(as_expr(7.5), FloatImm)

    def test_as_expr_rejects_strings(self):
        with pytest.raises(TypeError):
            as_expr("nope")


class TestOperators:
    def test_add_builds_node(self):
        e = Var("i") + 1
        assert isinstance(e, Add)

    def test_radd(self):
        e = 1 + Var("i")
        assert isinstance(e, Add)

    def test_sub_and_rsub(self):
        assert isinstance(Var("i") - 1, Sub)
        assert isinstance(1 - Var("i"), Sub)

    def test_mul(self):
        assert isinstance(Var("i") * 4, Mul)

    def test_floordiv_and_mod(self):
        assert isinstance(Var("i") // 4, FloorDiv)
        assert isinstance(Var("i") % 4, FloorMod)

    def test_reflected_operators_keep_operand_order(self):
        i = Var("i")
        for e, kind in ((2 * i, Mul), (8 // i, FloorDiv), (8 % i, FloorMod)):
            assert isinstance(e, kind) and e.b is i
            assert isinstance(e.a, IntImm)

    def test_neg_is_zero_minus(self):
        e = -Var("i")
        assert isinstance(e, Sub)
        assert isinstance(e.a, IntImm) and e.a.value == 0

    def test_comparison_returns_node(self):
        e = Var("i") < 10
        assert isinstance(e, LT)
        assert e.dtype == "bool"

    def test_equal_method(self):
        e = Var("i").equal(3)
        assert e.dtype == "bool"

    def test_python_eq_is_identity(self):
        a, b = Var("i"), Var("i")
        assert a == a
        assert not (a == b)

    def test_nodes_hashable(self):
        s = {Var("i"), Var("j")}
        assert len(s) == 2


class TestDtypeInference:
    def test_int_plus_int(self):
        assert (Var("i") + 1).dtype == "int32"

    def test_int_times_float_widens(self):
        assert (Var("i") * 1.5).dtype == "float32"

    def test_and_is_bool(self):
        c = Var("i") < 1
        assert And(c, c).dtype == "bool"


class TestBufferLoad:
    def test_load_dtype_follows_buffer(self):
        buf = Buffer("A", (4, 4), "float32")
        load = BufferLoad(buf, [Var("i"), Var("j")])
        assert load.dtype == "float32"
        assert len(load.indices) == 2

    def test_load_coerces_int_indices(self):
        buf = Buffer("A", (4,), "float32")
        load = BufferLoad(buf, [2])
        assert isinstance(load.indices[0], IntImm)


class TestConjunction:
    def test_all_of_empty_is_none(self):
        assert all_of([]) is None

    def test_all_of_single(self):
        c = Var("i") < 1
        assert all_of([c]) is c

    def test_all_of_multiple_is_and(self):
        c = Var("i") < 1
        assert isinstance(all_of([c, c]), And)

    def test_repr_uses_printer(self):
        assert "i" in repr(Var("i") + 1)


class TestHostFloatOps:
    """Float ``/``, the ``exp``/``tanh`` intrinsics and ``select`` of
    host epilogues and prologues."""

    def test_true_division_builds_div(self):
        x = tir.BufferLoad(Buffer("X", (4,), "float32"), [Var("i")])
        node = x / 2.0
        assert isinstance(node, tir.Div) and node.dtype == "float32"
        assert isinstance(1.0 / x, tir.Div)
        assert repr((x + 1.0) / x) == "(X[i] + 1.0) / X[i]"

    def test_intrinsics_print_simplify_and_rebuild(self):
        from repro.tir import substitute

        i, j = Var("i"), Var("j")
        x = tir.BufferLoad(Buffer("X", (8,), "float32"), [i + 0])
        node = tir.Exp(tir.Tanh(x))
        assert node.dtype == "float32"
        assert repr(node) == "exp(tanh(X[i + 0]))"
        # simplify reaches the load under the intrinsics
        assert repr(tir.simplify(node)) == "exp(tanh(X[i]))"
        swapped = substitute(node, {i: j})
        assert type(swapped) is tir.Exp and repr(swapped) == "exp(tanh(X[j + 0]))"
        assert substitute(node, {Var("k"): j}) is node

    def test_select_prints_simplifies_and_rebuilds(self):
        from repro.tir import substitute

        i, j = Var("i"), Var("j")
        x = tir.BufferLoad(Buffer("X", (8,), "float32"), [i + 0])
        node = tir.Select(i + 0 < 4, x, tir.Tanh(x))
        assert node.dtype == "float32" and node.op_name == "select"
        assert tir.Select(i < 4, 1, x).dtype == "float32"
        assert repr(node) == "select(i + 0 < 4, X[i + 0], tanh(X[i + 0]))"
        # simplify reaches all three children; a constant condition
        # keeps the select (the taken arm's dtype may differ)
        assert repr(tir.simplify(node)) == "select(i < 4, X[i], tanh(X[i]))"
        kept = tir.simplify(tir.Select(tir.IntImm(1, "bool"), 0, x))
        assert type(kept) is tir.Select
        swapped = substitute(node, {i: j})
        assert type(swapped) is tir.Select
        assert repr(swapped) == "select(j + 0 < 4, X[j + 0], tanh(X[j + 0]))"
        assert substitute(node, {Var("k"): j}) is node
        done = tir.simplify(node)
        assert tir.simplify(done) is done
        plain = tir.Select(i, i, j)  # nothing below it to simplify
        assert tir.simplify(plain) is plain
