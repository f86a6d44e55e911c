"""The three PIM-aware optimization passes (§5.3) — unit level."""

import numpy as np
import pytest

from repro.optim import (
    eliminate_copy_checks,
    hoist_invariant_branches,
    tighten_loop_bounds,
)
from repro.pipeline import PassContext, build
from repro.tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    IntImm,
    Min,
    SeqStmt,
    Var,
    iter_stmts,
    seq,
)


def guarded_copy_loop(n=16, guard=True, mram_rows=64):
    """for v in range(n): if base+v < K: W[v] = M[base+v]"""
    w = Buffer("W", (n,), "float32", scope="wram")
    m = Buffer("M", (mram_rows,), "float32", scope="mram")
    v = Var("v")
    base = Var("base")
    store = BufferStore(w, BufferLoad(m, [base + v]), [v])
    body = IfThenElse(base + v < 50, store) if guard else store
    return For(v, n, body), w, m


class TestDmaElim:
    def test_guarded_copy_becomes_dma(self):
        loop, w, m = guarded_copy_loop()
        result = eliminate_copy_checks(loop)
        assert isinstance(result, DmaCopy)
        assert result.size == 16
        assert result.dst is w and result.src is m

    def test_unguarded_copy_becomes_dma(self):
        loop, _, _ = guarded_copy_loop(guard=False)
        assert isinstance(eliminate_copy_checks(loop), DmaCopy)

    def test_writeback_direction(self):
        w = Buffer("W", (8,), "float32", scope="wram")
        m = Buffer("M", (64,), "float32", scope="mram")
        v = Var("v")
        loop = For(v, 8, BufferStore(m, BufferLoad(w, [v]), [Var("b") + v]))
        result = eliminate_copy_checks(loop)
        assert isinstance(result, DmaCopy)
        assert result.dst is m

    def test_strided_copy_keeps_loop_but_drops_check(self):
        w = Buffer("W", (16,), "float32", scope="wram")
        m = Buffer("M", (256,), "float32", scope="mram")
        v = Var("v")
        store = BufferStore(w, BufferLoad(m, [v * 2]), [v])  # stride 2
        loop = For(v, 16, IfThenElse(v * 2 < 30, store))
        result = eliminate_copy_checks(loop)
        assert isinstance(result, For)
        assert isinstance(result.body, BufferStore)  # check removed

    def test_outer_loop_merged_when_contiguous(self):
        w = Buffer("W", (4, 16), "float32", scope="wram")
        m = Buffer("M", (4, 16), "float32", scope="mram")
        r, v = Var("r"), Var("v")
        inner = For(v, 16, BufferStore(w, BufferLoad(m, [r, v]), [r, v]))
        outer = For(r, 4, inner)
        result = eliminate_copy_checks(outer)
        assert isinstance(result, DmaCopy)
        assert result.size == 64

    def test_outer_loop_not_merged_when_strided(self):
        w = Buffer("W", (4, 16), "float32", scope="wram")
        m = Buffer("M", (4, 64), "float32", scope="mram")  # wider rows
        r, v = Var("r"), Var("v")
        inner = For(v, 16, BufferStore(w, BufferLoad(m, [r, v]), [r, v]))
        result = eliminate_copy_checks(For(r, 4, inner))
        assert isinstance(result, For)
        assert isinstance(result.body, DmaCopy)
        assert result.body.size == 16

    def test_compute_guard_untouched(self):
        # Not a pure copy: the value is an arithmetic expression.
        w = Buffer("W", (16,), "float32", scope="wram")
        v = Var("v")
        store = BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        loop = For(v, 16, IfThenElse(v < 10, store))
        result = eliminate_copy_checks(loop)
        assert isinstance(result.body, IfThenElse)

    def test_wram_to_wram_untouched(self):
        a = Buffer("A", (16,), "float32", scope="wram")
        b = Buffer("B", (16,), "float32", scope="wram")
        v = Var("v")
        loop = For(v, 16, BufferStore(a, BufferLoad(b, [v]), [v]))
        assert isinstance(eliminate_copy_checks(loop), For)

    def test_thread_loop_never_converted(self):
        loop, _, _ = guarded_copy_loop(guard=False)
        tloop = For(
            Var("t"), 2, loop, ForKind.THREAD_BINDING, "threadIdx.x"
        )
        result = eliminate_copy_checks(tloop)
        assert isinstance(result, For)
        assert result.kind is ForKind.THREAD_BINDING


class TestTighten:
    def _compute_loop(self, extent, bound, extra_cond=None):
        w = Buffer("W", (64,), "float32", scope="wram")
        v = Var("v")
        store = BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        cond = v < bound
        if extra_cond is not None:
            from repro.tir import And

            cond = And(cond, extra_cond)
        return For(v, extent, IfThenElse(cond, store)), v

    def test_upper_bound_intersected(self):
        loop, v = self._compute_loop(16, 10)
        result = tighten_loop_bounds(loop)
        assert isinstance(result, For)
        from repro.tir import const_int, simplify

        assert const_int(simplify(result.extent)) == 10
        assert isinstance(result.body, BufferStore)

    def test_symbolic_bound_produces_min(self):
        j = Var("j")
        w = Buffer("W", (64,), "float32", scope="wram")
        v = Var("v")
        store = BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        loop = For(v, 16, IfThenElse(j * 16 + v < 50, store))
        result = tighten_loop_bounds(loop)
        assert isinstance(result.extent, Min)
        assert isinstance(result.body, BufferStore)

    def test_invariant_conjunct_left_in_place(self):
        i = Var("i")
        loop, v = self._compute_loop(16, 10, extra_cond=(i < 7))
        result = tighten_loop_bounds(loop)
        assert isinstance(result.body, IfThenElse)
        from repro.tir import collect_vars

        assert i in collect_vars(result.body.condition)

    def test_non_single_if_body_untouched(self):
        w = Buffer("W", (64,), "float32", scope="wram")
        v = Var("v")
        store = BufferStore(w, IntImm(0), [v])
        loop = For(v, 16, seq(store, store))
        result = tighten_loop_bounds(loop)
        assert isinstance(result.body, SeqStmt)

    def test_negative_coefficient_not_tightened(self):
        w = Buffer("W", (64,), "float32", scope="wram")
        v = Var("v")
        store = BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        loop = For(v, 16, IfThenElse(IntImm(10) - v < 5, store))
        result = tighten_loop_bounds(loop)
        assert isinstance(result.body, IfThenElse)


class TestHoist:
    def test_invariant_branch_hoisted(self):
        i, v = Var("i"), Var("v")
        w = Buffer("W", (64,), "float32", scope="wram")
        store = BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        loop = For(v, 16, IfThenElse(i < 7, store))
        result = hoist_invariant_branches(loop)
        assert isinstance(result, IfThenElse)
        assert isinstance(result.then_case, For)

    def test_variant_branch_not_hoisted(self):
        v = Var("v")
        w = Buffer("W", (64,), "float32", scope="wram")
        store = BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        loop = For(v, 16, IfThenElse(v < 7, store))
        result = hoist_invariant_branches(loop)
        assert isinstance(result, For)

    def test_pdce_sinks_fill_into_guard(self):
        i, v = Var("i"), Var("v")
        w = Buffer("W", (16,), "float32", scope="wram")
        m = Buffer("M", (64,), "float32", scope="mram")
        fill = DmaCopy(w, [IntImm(0)], m, [IntImm(0)], 16)
        consume = IfThenElse(
            i < 7,
            BufferStore(w, BufferLoad(w, [v]) + 1.0, [v]),
        )
        result = hoist_invariant_branches(SeqStmt([fill, consume]))
        assert isinstance(result, IfThenElse)
        inner = result.then_case
        assert isinstance(inner, SeqStmt)
        assert isinstance(inner.stmts[0], DmaCopy)

    def test_fill_read_by_guard_not_sunk(self):
        i, v = Var("i"), Var("v")
        w = Buffer("W", (16,), "float32", scope="wram")
        m = Buffer("M", (64,), "float32", scope="mram")
        fill = DmaCopy(w, [IntImm(0)], m, [IntImm(0)], 16)
        consume = IfThenElse(
            BufferLoad(w, [IntImm(0)]) < 7.0,
            BufferStore(w, BufferLoad(w, [v]) + 1.0, [v]),
        )
        result = hoist_invariant_branches(SeqStmt([fill, consume]))
        assert isinstance(result, SeqStmt)

    def test_hoist_composes_through_outer_loop(self):
        # Fig. 8(d): sink fills, then hoist above the enclosing loop.
        i, j, v = Var("i"), Var("j"), Var("v")
        w = Buffer("W", (16,), "float32", scope="wram")
        m = Buffer("M", (64,), "float32", scope="mram")
        fill = DmaCopy(w, [IntImm(0)], m, [j], 16)
        compute = IfThenElse(
            i < 7, BufferStore(w, BufferLoad(w, [v]) + 1.0, [v])
        )
        nest = For(j, 3, SeqStmt([fill, compute]))
        result = hoist_invariant_branches(nest)
        assert isinstance(result, IfThenElse)
        assert isinstance(result.then_case, For)


class TestPipeline:
    def test_levels_validated(self):
        with pytest.raises(ValueError):
            PassContext(opt_level="O7")

    def test_o0_identity(self):
        ctx = PassContext(opt_level="O0")
        assert [p.name for p in build.passes if p.enabled(ctx)] == ["lower"]
