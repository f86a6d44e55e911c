"""Buffers, dtype sizes, pretty-printing and statement simplification."""

import pytest

from repro.tir import (
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    Var,
    dtype_bytes,
    expr_to_str,
    simplify_stmt,
    stmt_to_str,
)


class TestBuffer:
    def test_shape_and_size(self):
        b = Buffer("A", (4, 8), "float32")
        assert b.shape == (4, 8)
        assert b.size == 32
        assert b.nbytes == 128

    def test_elem_bytes(self):
        assert Buffer("A", (4,), "int64").elem_bytes == 8

    def test_invalid_scope(self):
        with pytest.raises(ValueError):
            Buffer("A", (4,), scope="l1")

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Buffer("A", ())
        with pytest.raises(ValueError):
            Buffer("A", (0,))

    def test_with_scope(self):
        b = Buffer("A_w", (4,), scope="wram")
        assert b.scope == "wram" and b.name == "A_w"

    def test_flat_index_row_major(self):
        b = Buffer("A", (4, 8))
        from repro.tir import simplify, const_int

        flat = b.flat_index([IntImm(2), IntImm(3)])
        assert const_int(simplify(flat)) == 19

    def test_flat_index_arity_check(self):
        with pytest.raises(ValueError):
            Buffer("A", (4, 8)).flat_index([IntImm(0)])

    def test_dtype_bytes_unknown(self):
        with pytest.raises(ValueError):
            dtype_bytes("complex128")


class TestPrinter:
    def test_expr_precedence(self):
        i, j = Var("i"), Var("j")
        assert expr_to_str((i + j) * 2) == "(i + j) * 2"

    def test_expr_no_spurious_parens(self):
        i, j = Var("i"), Var("j")
        assert expr_to_str(i * 2 + j) == "i * 2 + j"

    def test_bool_immediates_print_as_python(self):
        assert expr_to_str(IntImm(1, "bool")) == "True"
        assert expr_to_str(IntImm(0, "bool")) == "False"

    def test_stmt_repr_uses_printer(self):
        loop = For(Var("i"), 4, BufferStore(Buffer("A", (4,)), 1, [Var("i")]))
        assert repr(loop) == stmt_to_str(loop)

    def test_min_rendered_as_call(self):
        from repro.tir import Min

        assert expr_to_str(Min(Var("i"), IntImm(4))) == "min(i, 4)"

    def test_load_rendering(self):
        b = Buffer("A", (4, 4))
        assert expr_to_str(BufferLoad(b, [Var("i"), IntImm(0)])) == "A[i, 0]"

    def test_stmt_loop_rendering(self):
        b = Buffer("A", (4,))
        loop = For(Var("i"), 4, BufferStore(b, IntImm(1), [Var("i")]))
        text = stmt_to_str(loop)
        assert "for i in range(4):" in text
        assert "A[i] = 1" in text

    def test_thread_binding_annotated(self):
        b = Buffer("A", (4,))
        loop = For(
            Var("i"), 4, BufferStore(b, IntImm(1), [Var("i")]),
            ForKind.THREAD_BINDING, "blockIdx.x",
        )
        assert "blockIdx.x" in stmt_to_str(loop)

    def test_dma_rendering(self):
        w = Buffer("W", (16,), scope="wram")
        m = Buffer("M", (64,), scope="mram")
        text = stmt_to_str(DmaCopy(w, [IntImm(0)], m, [Var("k")], 16))
        assert "dma_copy" in text and "n=16" in text

    def test_barrier_rendering(self):
        # the spelling the lowering goldens digest
        assert stmt_to_str(Barrier(), indent=1) == "    barrier()"


class TestStmtSimplify:
    def _store(self):
        return BufferStore(Buffer("A", (8,)), IntImm(1), [Var("j")])

    def test_unit_loop_inlined(self):
        i = Var("i")
        st = BufferStore(Buffer("A", (8,)), IntImm(1), [i])
        loop = For(i, 1, st)
        result = simplify_stmt(loop)
        assert isinstance(result, BufferStore)
        assert result.indices[0].value == 0

    def test_zero_extent_loop_removed(self):
        loop = For(Var("i"), 0, self._store())
        assert simplify_stmt(loop) is None

    def test_const_true_branch_unwrapped(self):
        node = IfThenElse(IntImm(1, "bool"), self._store())
        assert isinstance(simplify_stmt(node), BufferStore)

    def test_const_false_branch_removed(self):
        node = IfThenElse(IntImm(0, "bool"), self._store())
        assert simplify_stmt(node) is None

    def test_loop_and_branch_around_nothing_removed(self):
        empty = For(Var("k"), 0, self._store())
        assert simplify_stmt(For(Var("i"), 4, empty)) is None
        assert simplify_stmt(IfThenElse(Var("i") < 2, empty)) is None

    def test_thread_unit_loop_kept(self):
        loop = For(
            Var("t"), 1, self._store(), ForKind.THREAD_BINDING, "threadIdx.x"
        )
        result = simplify_stmt(loop)
        assert isinstance(result, For)

    def test_nested_unit_loops(self):
        i, j = Var("i"), Var("j")
        st = BufferStore(Buffer("A", (8, 8)), IntImm(1), [i, j])
        nest = For(i, 1, For(j, 1, st))
        result = simplify_stmt(nest)
        assert isinstance(result, BufferStore)
