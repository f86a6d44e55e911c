"""Host programs as lane axes: a perfect loop nest runs as one lane axis,
and an index over its lanes that is an arithmetic progression inside
the buffer is a basic slice, proved when the plan is built.

The rfactor fold (``host_post`` of a spatial-reduce program whose
reduction is split across DPUs) is the program these exist for; the
property test drives hand-built folds through the same op tree.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.autotune.sketch import fixed_params
from repro.lowering import GridDim, LoweredModule
from repro.tir import (
    NE, Barrier, Buffer, BufferLoad, BufferStore, FloorMod, For, IfThenElse,
    IntImm, SeqStmt, Var, iter_stmts,
)
from repro.upmem import FunctionalExecutor
from repro.upmem.interp import InterpError
from repro.upmem.vectorize import expr, host_program_for, ops
from repro.workloads.tensor_ops import mmtv, mtv

#: (workload, DPUs per spatial axis): odd extents, so a ``host_threads``
#: split leaves a guarded tail.
_RFACTOR = [(mtv(37, 256), [4]), (mmtv(3, 9, 128), [3, 2])]


def _nest_vars(stmt):
    """The variables of the perfect constant-extent nest ``stmt`` opens."""
    out = []
    while isinstance(stmt, For) and isinstance(stmt.extent, IntImm):
        out.append(stmt.var)
        stmt = stmt.body
    return out


class TestRfactorFolds:
    @pytest.mark.parametrize("threads", [1, 2, 4, 32])
    @pytest.mark.parametrize(
        "wl,dpus", _RFACTOR, ids=[wl.name for wl, _ in _RFACTOR]
    )
    def test_one_lane_axis_equal_to_the_scalar_path(
        self, wl, dpus, threads, monkeypatch
    ):
        """``host_threads`` splits the fold's row loop in two (``for o:
        for i: C[o * f + i] = ...``); the whole nest, the column loop of
        ``mmtv`` included, is one lane axis, and verify compares every
        host buffer with the scalar interpreter's, byte for byte."""
        params = fixed_params(
            wl, dpus, n_tasklets=2, cache=16, k_dpus=2, host_threads=threads
        )
        exe = repro.compile(wl, target="upmem", params=params)
        (stmt,) = exe.lowered.host_post
        (plan,) = host_program_for(exe.lowered, "post").plans
        nest = _nest_vars(stmt)
        assert plan.lane_vars == set(nest)
        extents = []
        s = stmt
        for _ in nest:
            extents.append(s.extent.value)
            s = s.body
        assert len(plan.lanes) == np.prod(extents)
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        inputs = wl.random_inputs(1)
        out, = exe.run(inputs)
        np.testing.assert_allclose(
            out, wl.reference_output(inputs), rtol=1e-4, atol=1e-4
        )

    def test_a_fold_tests_no_element(self, monkeypatch):
        """The decode FC fold — ``C[i] = 0; for rk: C[i] += C.rf[rk, i]``
        over every row — loads views and stores into views: no index
        reaches ``_checked``."""
        wl = mtv(128, 512)
        params = fixed_params(wl, [64], n_tasklets=16, cache=64, k_dpus=8)
        exe = repro.compile(wl, target="upmem", params=params)
        checked = []
        real = expr._checked

        def spy(ctx, buffer, d, i):
            checked.append(buffer.name)
            return real(ctx, buffer, d, i)

        monkeypatch.setattr(expr, "_checked", spy)
        monkeypatch.setattr(ops, "_checked", spy)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        fexec = FunctionalExecutor(exe.lowered)
        state = fexec.prepare(wl.random_inputs(2))
        fexec.run_points([state], range(exe.lowered.n_dpus))
        checked.clear()
        out, = fexec.finalize(state)
        assert checked == []
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        again, = exe.run(wl.random_inputs(2))
        assert out.tobytes() == again.tobytes()


class TestLaneSafety:
    """A nest joins the lane axis only as deep as its iterations write
    disjoint slices and read nothing another iteration writes."""

    C = Buffer("C", (12,), "float32")

    def _plan(self, stmt):
        module = _host_module([stmt], [self.C], [])
        (plan,) = host_program_for(module, "post").plans
        return module, plan

    def test_a_nest_whose_store_repeats_keeps_the_outer_loop(self):
        """``for i in 12: for r in 3: C[i] += 1``: ``(i, r)`` stores
        ``C[i]`` three times, so only ``i`` is a lane."""
        i, r = Var("i"), Var("r")
        acc = BufferStore(self.C, BufferLoad(self.C, [i]) + 1.0, [i])
        _, plan = self._plan(For(i, 12, For(r, 3, acc)))
        assert plan.lane_vars == {i}

    def test_a_split_row_loop_is_one_axis(self):
        """``for o in 3: for i in 4: C[o * 4 + i] = o - i``."""
        o, i = Var("o"), Var("i")
        store = BufferStore(self.C, (o - i) * 1.0, [o * 4 + i])
        module, plan = self._plan(For(o, 3, For(i, 4, store)))
        assert plan.lane_vars == {o, i} and len(plan.lanes) == 12
        want = [float(a - b) for a in range(3) for b in range(4)]
        _all_modes_agree(module, {}, [want])

    def test_a_colliding_split_is_not_a_lane_axis(self):
        """``for o in 3: for i in 4: C[o * 3 + i]``: lanes ``(0, 3)`` and
        ``(1, 0)`` both store ``C[3]`` — the nest runs step by step, the
        last writer last."""
        o, i = Var("o"), Var("i")
        store = BufferStore(self.C, (o * 10 + i) * 1.0, [o * 3 + i])
        module, plan = self._plan(For(o, 3, For(i, 4, store)))
        assert plan.lane_vars == set()
        want = np.zeros(12, np.float32)
        for a in range(3):
            for b in range(4):
                want[a * 3 + b] = a * 10 + b
        _all_modes_agree(module, {}, [want])

    def test_a_read_of_another_lane_is_not_a_lane_axis(self):
        """``for o in 2: for i in 6: C[o * 6 + i] = C[i] + 1`` reads row
        ``i`` of the first half from the second: not lane-safe at depth
        two, and at depth one ``C[i]`` is another lane's row too."""
        o, i = Var("o"), Var("i")
        body = BufferStore(
            self.C, BufferLoad(self.C, [i]) + 1.0, [o * 6 + i]
        )
        module, plan = self._plan(For(o, 2, For(i, 6, body)))
        assert plan.lane_vars == set()
        _all_modes_agree(module, {}, [[1.0] * 6 + [2.0] * 6])


class TestLaneSlices:
    """A lane slice is a view; the mask, the axis and the buffer's edge
    still apply to it as they do to the checked form."""

    P = Buffer("P", (4, 6), "float32")
    C = Buffer("C", (6,), "float32")
    FEED = {"P": np.arange(24, dtype=np.float32).reshape(4, 6) - 7.5}

    def test_a_masked_store_writes_the_live_lanes(self):
        """``for i in 6: if i % 3 != 1: C[i] = P[1, i]``: a ``copyto``
        into the lane slice, where the condition holds."""
        i = Var("i")
        store = BufferStore(self.C, BufferLoad(self.P, [IntImm(1), i]), [i])
        kept = NE(FloorMod(i, IntImm(3)), IntImm(1))
        stmt = For(i, 6, IfThenElse(kept, store))
        module = _host_module([stmt], [self.C], [self.P])
        row = self.FEED["P"][1]
        want = [row[j] if j % 3 != 1 else 0.0 for j in range(6)]
        _all_modes_agree(module, self.FEED, [want])

    def test_a_gapped_index_is_checked_not_sliced(self):
        """``for o in 2: for i in 3: D[o * 4 + i] = Q[o * 4 + i]`` writes
        elements 0-2 and 4-6: one lane axis, but its index is not an
        arithmetic progression, so it stays a checked index array."""
        o, i = Var("o"), Var("i")
        q = Buffer("Q", (8,), "float32")
        d = Buffer("D", (8,), "float32")
        at = [o * 4 + i]
        store = BufferStore(d, BufferLoad(q, at), at)
        module = _host_module([For(o, 2, For(i, 3, store))], [d], [q])
        (plan,) = host_program_for(module, "post").plans
        assert plan.lane_vars == {o, i}
        assert expr._ExprCompiler(plan).lane_slice(at[0], 8) is None
        feed = np.arange(8, dtype=np.float32) - 3.5
        want = np.where(np.arange(8) % 4 < 3, feed, 0)
        want[7] = 0
        _all_modes_agree(module, {"Q": feed}, [want])

    def test_a_store_with_a_second_lane_index_is_not_sliced(self):
        """``for i in 6: G[i, Q[0, i]] = P[1, i]``: the row is a lane
        slice only when no other index varies with the lane, or NumPy
        would write the outer product — 36 elements, not 6."""
        i = Var("i")
        q = Buffer("Q", (1, 6), "int32")
        g = Buffer("G", (6, 6), "float32")
        store = BufferStore(
            g, BufferLoad(self.P, [IntImm(1), i]),
            [i, BufferLoad(q, [IntImm(0), i])],
        )
        module = _host_module([For(i, 6, store)], [g], [self.P, q])
        (plan,) = host_program_for(module, "post").plans
        assert plan.lane_vars == {i}
        cols = np.array([[5, 3, 0, 1, 4, 2]], np.int32)
        want = np.zeros((6, 6), np.float32)
        want[np.arange(6), cols[0]] = self.FEED["P"][1]
        _all_modes_agree(module, {**self.FEED, "Q": cols}, [want])

    def test_an_axis_index_past_the_buffer_raises(self):
        """``for i in 6: for k in 3: C[i] = C[i] + P[k + 2, i]`` reads row
        4 of a 4-row ``P``: ``InterpError`` in every mode, never a
        clamped read."""
        i, k = Var("i"), Var("k")
        at = [i]
        scan = For(k, 3, BufferStore(
            self.C,
            BufferLoad(self.C, at) + BufferLoad(self.P, [k + 2, i]),
            at,
        ))
        module = _host_module([For(i, 6, scan)], [self.C], [self.P])
        (plan,) = host_program_for(module, "post").plans
        assert plan.lane_vars == {i}
        for mode in ("scalar", "vector", "verify"):
            with pytest.raises(InterpError):
                _outputs(module, self.FEED, mode)


def _host_module(stmts, outputs, inputs):
    """One DPU that does nothing, then ``stmts`` on the host."""
    return LoweredModule(
        name="host", grid=[GridDim("blockIdx.x", Var("b"), 1)],
        kernel=Barrier(), transfers=[], host_pre=[], host_post=list(stmts),
        inputs=list(inputs), outputs=list(outputs),
    )


def _outputs(module, feed, mode):
    outs = FunctionalExecutor(module, mode=mode).run(feed)
    return [o.tobytes() for o in outs]


def _all_modes_agree(module, feed, want):
    modes = ("scalar", "vector", "verify")
    got = {m: _outputs(module, feed, m) for m in modes}
    dtypes = [np.dtype(b.dtype) for b in module.outputs]
    want = [np.asarray(w, d).tobytes() for w, d in zip(want, dtypes)]
    assert got == {m: want for m in got}


# ---------------------------------------------------------------------------
# the property: generated folds, vector == scalar byte for byte
# ---------------------------------------------------------------------------


def _fold_module(rows, parts, dtype, threads, reverse, stride):
    """An rfactor-style fold and a map over ``rows`` lanes, as the
    lowering emits them: ``C[t] = 0; for rk: C[t] = C[t] + P[rk, s * r]``
    and ``D[t] = P[0, s * r] * 2`` with ``r`` the row (split ``for o: for
    i:`` and guarded when ``threads > 1``) and ``t`` the row or its
    mirror ``rows - 1 - r``."""
    p = Buffer("P", (parts, stride * rows), dtype)
    c = Buffer("C", (rows,), dtype)
    d = Buffer("D", (rows,), dtype)
    zero = IntImm(0) if dtype == "int32" else 0.0
    rk = Var("rk")
    if threads == 1:
        i = Var("i")
        loops, row, guard = [(i, rows)], i, None
    else:
        per = -(-rows // threads)
        o, i = Var("o"), Var("i")
        loops, row = [(o, threads), (i, per)], o * per + i
        guard = row < rows if threads * per > rows else None
    at = [(rows - 1) - row] if reverse else [row]
    src = [IntImm(0), row * stride] if stride > 1 else [IntImm(0), row]
    summand = BufferLoad(p, [rk, row * stride] if stride > 1 else [rk, row])
    stmts = [
        BufferStore(c, zero, at),
        For(rk, parts, BufferStore(c, BufferLoad(c, at) + summand, at)),
        BufferStore(d, BufferLoad(p, src) * 2, at),
    ]
    if guard is not None:
        stmts = [IfThenElse(guard, s) for s in stmts]
    nest = SeqStmt(stmts)
    for var, extent in reversed(loops):
        nest = For(var, extent, nest)
    return _host_module([nest], [c, d], [p]), [v for v, _ in loops]


#: Float values a fold can get wrong: signed zeros, infinities, NaN.
#: One NaN only, and never beside both infinities: where two different
#: NaNs meet (``inf - inf`` makes the sign-set default NaN) the vector
#: fold keeps the accumulator's and NumPy scalars the summand's — the
#: divergence ``ops._FOLD_ALIGN`` documents, not this path's.
_WITH_NAN = (0.0, -0.0, np.inf, np.nan)
_BOTH_INFS = (0.0, -0.0, np.inf, -np.inf)


def _feed(dtype, shape, seed, specials):
    rng = np.random.default_rng(seed)
    if dtype == "int32":
        return rng.integers(-2**31, 2**31, shape, dtype=np.int64).astype(
            np.int32
        )
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-40, 38, shape)
    pool = np.array(specials)[rng.integers(0, len(specials), shape)]
    with np.errstate(over="ignore"):
        return np.where(rng.random(shape) < 0.2, pool, values).astype(
            np.float32
        )


@settings(max_examples=120, deadline=None)
@given(
    rows=st.integers(1, 300),
    parts=st.integers(1, 16),
    dtype=st.sampled_from(["float32", "int32"]),
    threads=st.sampled_from([1, 2, 4, 32]),
    reverse=st.booleans(),
    stride=st.sampled_from([1, 2]),
    nan=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=128, parts=8, dtype="float32", threads=1, reverse=False,
         stride=1, nan=True, seed=0)
def test_lane_slice_folds_equal_the_scalar_path(
    rows, parts, dtype, threads, reverse, stride, nan, seed
):
    module, nest = _fold_module(rows, parts, dtype, threads, reverse, stride)
    (plan,) = host_program_for(module, "post").plans
    assert plan.lane_vars == set(nest)
    p = _feed(dtype, (parts, stride * rows), seed,
              _WITH_NAN if nan else _BOTH_INFS)
    with np.errstate(all="ignore"):
        want = _outputs(module, {"P": p}, "scalar")
        got = _outputs(module, {"P": p}, "vector")
    assert got == want


def test_the_generated_folds_take_lane_slices():
    """The unguarded folds of the property above index by lane slices
    (no index array), the guarded ones by checked arrays."""
    for threads, sliced in ((1, True), (4, True), (32, False)):
        module, _ = _fold_module(40, 3, "float32", threads, True, 2)
        (plan,) = host_program_for(module, "post").plans
        ec = expr._ExprCompiler(plan)
        stores = [
            s for s in iter_stmts(module.host_post[0])
            if isinstance(s, BufferStore)
        ]
        slices = [
            ec.lane_slice(s.indices[0], s.buffer.shape[0]) for s in stores
        ]
        assert all((sl is not None) == sliced for sl in slices), threads
