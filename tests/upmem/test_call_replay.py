"""A call moves data and nothing else: the chunk geometry a vector plan
keeps per chunk shape, the bindings the layers above keep per program,
and the checks that still run on every call."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.lib.stride_tricks import as_strided
from hypothesis import strategies as st

import repro
from repro.autotune.compile import default_engine
from repro.graph import Node, compile_graph, gptj_model_graph
from repro.lowering import GridDim, LoweredModule, TransferSpec
from repro.tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    IntImm,
    SeqStmt,
    Var,
)
from repro.upmem import FunctionalExecutor, VerifyMismatch, plan_for
from repro.upmem.vectorize import plan as plan_module
from repro.upmem.interp import InterpError
from repro.workloads import GPTJConfig, make_workload, tensor_ops
from repro.workloads.tensor_ops import mtv, va

from ..conftest import host_threads
from ..lowering.golden_corpus import draws
from .test_read_through import _affordable
from .test_vectorize import _O_M, _tile_module

_MTV = (
    mtv(48, 64),
    {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
     "host_threads": 1, "unroll": 0},
)
#: 997 elements on 8 DPUs of 128: the last tile hangs 27 over the edge.
_VA_TRIMMED = (va(997), {"n_dpus": 8, "n_tasklets": 2, "cache": 8})


def _forget_plan(exe):
    """Drop what ``exe``'s module derived on earlier calls — its vector
    plan and its local byte count, the entries a pickle leaves out — so
    the next call builds a plan nothing is resident in."""
    derived = exe.lowered.__dict__
    for name in [name for name in derived if name.startswith("_")]:
        del derived[name]


def _fresh_exe(wl, params):
    """An executable whose plan no other test has run (the compile
    engine hands every test the same module)."""
    exe = repro.compile(wl, target="upmem", params=params)
    _forget_plan(exe)
    return exe


# ---------------------------------------------------------------------------
# (a) what a second call no longer does
# ---------------------------------------------------------------------------


@pytest.fixture
def counters(monkeypatch):
    """Counts ``_Placement`` constructions, runs of the body of
    ``local_bytes_per_dpu`` and ``Node.input_bindings`` calls."""
    seen = {"placements": 0, "local_bytes": 0, "bindings": 0}
    init = plan_module._Placement.__init__
    local_bytes = LoweredModule.local_bytes_per_dpu
    bindings = Node.input_bindings

    def counted_init(self, L, spec, bases):
        seen["placements"] += 1
        init(self, L, spec, bases)

    def counted_local_bytes(self):
        seen["local_bytes"] += "_local_bytes" not in self.__dict__
        return local_bytes(self)

    def counted_bindings(self):
        seen["bindings"] += 1
        return bindings(self)

    monkeypatch.setattr(plan_module._Placement, "__init__", counted_init)
    monkeypatch.setattr(
        LoweredModule, "local_bytes_per_dpu", counted_local_bytes
    )
    monkeypatch.setattr(Node, "input_bindings", counted_bindings)
    return seen


class TestSecondCallDerivesNothing:
    @pytest.mark.parametrize(
        "wl,params", [_MTV, _VA_TRIMMED], ids=["mtv", "va-trimmed"]
    )
    def test_run_batch_of_the_same_size(
        self, wl, params, counters, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        exe = _fresh_exe(wl, params)
        batch = [wl.random_inputs(seed) for seed in range(3)]
        first = exe.run_batch(batch)
        assert counters["placements"] == len(exe.lowered.transfers)
        assert counters["local_bytes"] == 1
        warm = dict(counters)
        second = exe.run_batch([wl.random_inputs(seed) for seed in (3, 4, 5)])
        assert counters == warm
        # ... and the resident geometry serves other data correctly.
        again = exe.run_batch(batch)
        assert [o.tobytes() for (o,) in again] == [
            o.tobytes() for (o,) in first
        ]
        for (out,), seed in zip(second, (3, 4, 5)):
            inputs = wl.random_inputs(seed)
            np.testing.assert_allclose(
                out, wl.reference_output(inputs), rtol=1e-3, atol=1e-4
            )

    def test_trimmed_va_has_boundary_lanes(self, monkeypatch):
        """The case above is the one with partial lanes: its element
        indices are resident too, and counted against the byte cap."""
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        exe.run(wl.random_inputs(0))
        plan = plan_for(exe.lowered)
        (chunk,) = plan._chunks.values()
        assert any(p.partial is not None for p in chunk.places)
        held = sum(p.held for p in chunk.places)
        assert 0 < held == plan._element_bytes <= plan_module._ELEMENT_BYTES

    def test_one_decode_layer_graph(self, counters, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        config = GPTJConfig("gptj-replay", n_heads=2, d_model=32, head_dim=16)
        graph = gptj_model_graph(config, layers=1, capacity=4)
        exe = compile_graph(graph)
        exe.run_tensors(graph.random_inputs(0))
        warm = dict(counters)
        got = exe.run_tensors(graph.random_inputs(1))
        assert counters == warm
        want = graph.reference_outputs(graph.random_inputs(1))
        for name, out in got.items():
            np.testing.assert_allclose(out, want[name], rtol=1e-3, atol=1e-4)


# ---------------------------------------------------------------------------
# (b) resident geometry == fresh geometry, scalar == vector == verify
# ---------------------------------------------------------------------------

_BUDGET = 1 << 11  # elements per tensor the scalar interpreter affords here


def _small_grid_draws():
    """Golden-corpus draws whose halved shape lowers to <= 32 DPUs."""
    out = []
    for draw_id, family, shape, params in draws():
        wl = getattr(tensor_ops, family)(*_affordable(shape, _BUDGET))
        module = default_engine().compile(wl, params, opt_level="O3").module
        if module is not None and module.n_dpus <= 32:
            out.append((draw_id, wl, module))
    return out


_DRAWS = _small_grid_draws()


def _run_cut(module, feeds, cut, mode):
    """``feeds`` as one batch whose lane space runs in two pieces."""
    fexec = FunctionalExecutor(module, mode=mode)
    states = [fexec.prepare(feed) for feed in feeds]
    lanes = len(states) * module.n_dpus
    cut = min(cut, lanes)
    fexec.run_points(states, range(0, cut))
    fexec.run_points(states, range(cut, lanes))
    return b"".join(
        out.tobytes() for state in states for out in fexec.finalize(state)
    )


@settings(max_examples=30, deadline=None)
@given(
    draw=st.integers(0, len(_DRAWS) - 1),
    batch=st.integers(1, 5),
    cut=st.integers(1, 5 * 32),
    seeds=st.tuples(st.integers(0, 99), st.integers(100, 199)),
)
def test_resident_geometry_equals_fresh_and_modes_agree(
    draw, batch, cut, seeds
):
    assert len(_DRAWS) >= 40
    draw_id, wl, module = _DRAWS[draw]
    plan = plan_for(module)
    for seed in seeds:  # the second call is served from the table
        feeds = [wl.random_inputs(seed + i) for i in range(batch)]
        got = {
            mode: _run_cut(module, feeds, cut, mode)
            for mode in ("vector", "scalar", "verify")
        }
        assert got["vector"] == got["scalar"] == got["verify"], draw_id
        assert plan.check_invariants() == [], draw_id
    assert plan._chunks  # something was resident to audit
    assert len(plan._chunks) <= plan_module._CHUNK_SHAPES
    assert plan._element_bytes <= plan_module._ELEMENT_BYTES


class TestAudit:
    def test_a_moved_origin_is_named(self, monkeypatch):
        """Verify mode builds the served chunk's placements fresh and
        compares: a resident array that changed is reported with its
        transfer and chunk shape, before anything runs."""
        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        inputs = wl.random_inputs(0)
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        exe.run(inputs)
        plan = plan_for(exe.lowered)
        (key, chunk), = plan._chunks.items()
        place = chunk.places[0]
        moved = place.origin[0].copy()
        moved[1] += 1
        place.origin[0] = moved
        problems = plan.check_invariants()
        assert len(problems) == 1
        assert "origin of the h2d transfer of A" in problems[0]
        assert f"first grid point {key[0]}, {key[1]} lanes" in problems[0]
        with pytest.raises(VerifyMismatch, match="origin of the h2d transfer"):
            exe.run(inputs)

    def test_a_moved_lane_coordinate_is_named(self, monkeypatch):
        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        exe.run(wl.random_inputs(0))
        plan = plan_for(exe.lowered)
        (chunk,) = plan._chunks.values()
        (var, coords), = chunk.lane_vals.items()
        chunk.lane_vals[var] = coords[::-1]
        problems = plan.check_invariants()
        assert len(problems) == 1 and "lane coordinates" in problems[0]

    def test_memoised_indices_are_audited(self, monkeypatch):
        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        exe.run(wl.random_inputs(0))
        plan = plan_for(exe.lowered)
        (chunk,) = plan._chunks.values()
        place = next(p for p in chunk.places if p.elements_of)
        key = next(iter(place.elements_of))
        lanes, idxs, valid = place.elements_of[key]
        place.elements_of[key] = (lanes, idxs, ~valid)
        problems = plan.check_invariants()
        assert any("elements_of of the h2d" in p for p in problems)

    def test_an_entry_added_mid_audit_is_no_difference(self, monkeypatch):
        """A call on another thread may memoise a new lane range while
        the audit runs: the audit compares the entries it copied, so a
        clean table stays clean."""
        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        exe.run(wl.random_inputs(0))
        plan = plan_for(exe.lowered)
        (chunk,) = plan._chunks.values()
        kept = chunk.places[0]
        assert (1, 3) not in kept.indices and (1, 3) not in kept.cuts
        index, spans = plan_module._Placement.index, plan_module._Placement.spans
        inserted = []

        def index_then_insert(place, a, b):
            # The audit's first memo fill on the fresh placement: now the
            # "other thread" adds a range to the resident one.
            if place is not kept and not inserted:
                inserted.append((index(kept, 1, 3), spans(kept, 1, 3)))
            return index(place, a, b)

        monkeypatch.setattr(plan_module._Placement, "index", index_then_insert)
        assert plan.check_invariants() == []
        assert inserted and (1, 3) in kept.indices and (1, 3) in kept.cuts
        monkeypatch.setattr(plan_module._Placement, "index", index)
        assert plan.check_invariants() == []  # the next audit sees them

    def test_resident_arrays_are_read_only(self, monkeypatch):
        wl, params = _MTV
        exe = _fresh_exe(wl, params)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        exe.run(wl.random_inputs(0))
        (chunk,) = plan_for(exe.lowered)._chunks.values()
        arrays = [chunk.lanes, *chunk.lane_vals.values()]
        for place in chunk.places:
            arrays += [o for o in place.origin if isinstance(o, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


# ---------------------------------------------------------------------------
# (c) a tile off the tensor: the first call and the second call
# ---------------------------------------------------------------------------


def _outcomes(module, feed, monkeypatch):
    """Per mode, what two calls on one executor produced or raised."""
    got = {}
    for mode in ("scalar", "vector", "verify"):
        monkeypatch.setenv("REPRO_SIM_MODE", mode)
        fexec = FunctionalExecutor(module)
        calls = []
        for _ in range(2):
            try:
                out, = fexec.run(feed)
                calls.append(out.tobytes())
            except InterpError as err:
                calls.append(type(err))
        got[mode] = calls
    return got


_OFF_TENSOR = [
    (lambda b: b * 4 - 2), (lambda b: b - 5), (lambda b: b * 3 + 5),
]
_OFF_IDS = ["straddles-both-ends", "negative", "past-the-end"]


class TestTileOffTheTensorTwice:
    """``TestTileOffTheTensor``'s origins, each run twice: the padding
    and the dropped elements come from resident geometry the second
    time, and must be the same bytes."""

    @pytest.mark.parametrize("origin", _OFF_TENSOR, ids=_OFF_IDS)
    def test_h2d_pads_identically(self, origin, monkeypatch):
        src = Buffer("In", (8,), "float32")
        in_m = Buffer("In_m", (4,), "float32", scope="mram")
        w = Buffer("W", (4,), "float32", scope="wram")
        b = Var("b")
        kernel = SeqStmt([
            DmaCopy(w, [IntImm(0)], in_m, [IntImm(0)], 4),
            DmaCopy(_O_M[4], [IntImm(0), IntImm(0)], w, [IntImm(0)], 4),
        ])
        module = _tile_module(kernel, b, 4, 4, wram=[w])
        module.transfers.insert(
            0, TransferSpec("h2d", src, in_m, (origin(b),), (4,))
        )
        module.inputs.append(src)
        feed = {"In": np.arange(1, 9, dtype=np.float32)}
        got = _outcomes(module, feed, monkeypatch)
        first = got["scalar"][0]
        assert isinstance(first, bytes)
        assert all(calls == [first, first] for calls in got.values())

    @pytest.mark.parametrize(
        "origin",
        [(lambda b: b * 4 - 2), (lambda b: b * 4 - 9), (lambda b: b * 4 + 7)],
        ids=_OFF_IDS,
    )
    def test_d2h_drops_identically(self, origin, monkeypatch):
        out = Buffer("Out", (10,), "float32")
        o_m = Buffer("O_m", (4,), "float32", scope="mram")
        b, k = Var("b"), Var("k")
        kernel = For(k, 4, BufferStore(o_m, (b + 1) * 10.0 + k, [k]))
        module = LoweredModule(
            name="toy", grid=[GridDim("blockIdx.x", b, 4)], kernel=kernel,
            transfers=[TransferSpec("d2h", out, o_m, (origin(b),), (4,))],
            host_pre=[], host_post=[], inputs=[], outputs=[out],
            wram_buffers=[],
        )
        got = _outcomes(module, {}, monkeypatch)
        first = got["scalar"][0]
        assert isinstance(first, bytes)
        assert all(calls == [first, first] for calls in got.values())

    def test_an_out_of_range_access_raises_on_every_call(self, monkeypatch):
        """Lane 3 loads ``In_m[b + 1]`` of a 4-wide tile: ``InterpError``
        the first time and, from the same resident geometry, the second;
        an immediate index outside its buffer is not *proved*, so it
        still meets ``_checked`` on every call."""
        src = Buffer("In", (4,), "float32")
        in_m = Buffer("In_m", (4,), "float32", scope="mram")
        b = Var("b")
        feed = {"In": np.arange(1, 5, dtype=np.float32)}
        for index in (b + 1, IntImm(4)):
            kernel = BufferStore(
                _O_M[4], BufferLoad(in_m, [index]), [IntImm(0), IntImm(0)]
            )
            module = _tile_module(kernel, b, 4, 4, h2d=(src, in_m))
            got = _outcomes(module, feed, monkeypatch)
            assert all(calls == [InterpError] * 2 for calls in got.values())

    def test_a_geometry_that_raises_is_never_stored(self, monkeypatch):
        """A tile origin over a variable nothing binds raises when the
        chunk's placements are built — on every call, leaving no entry."""
        out = Buffer("Out", (8,), "float32")
        o_m = Buffer("O_m", (2,), "float32", scope="mram")
        b, stray = Var("b"), Var("stray")
        module = LoweredModule(
            name="toy", grid=[GridDim("blockIdx.x", b, 4)],
            kernel=BufferStore(o_m, 1.0, [IntImm(0)]),
            transfers=[TransferSpec("d2h", out, o_m, (b * 2 + stray,), (2,))],
            host_pre=[], host_post=[], inputs=[], outputs=[out],
        )
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        fexec = FunctionalExecutor(module)
        for _ in range(2):
            with pytest.raises(InterpError, match="unbound variable stray"):
                fexec.run({})
            assert plan_for(module)._chunks == {}


# ---------------------------------------------------------------------------
# the window is this call's view: strided and transposed inputs
# ---------------------------------------------------------------------------


class TestNonContiguousInputs:
    """The window *shape* is resident; the window *view* reads the
    strides of the array a call brings."""

    def test_transposed_and_sliced_inputs_through_mtv(self, monkeypatch):
        wl, params = _MTV
        exe = _fresh_exe(wl, params)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal(64).astype(np.float32)
        a_t = np.asfortranarray(a)  # same values, column-major strides
        b_wide = np.repeat(b, 2)
        b_wide[1::2] = -1.0
        b_s = b_wide[::2]  # same values, stride 8
        assert not a_t.flags.c_contiguous and not b_s.flags.c_contiguous
        assert a_t.tobytes("C") == a.tobytes() and b_s.tobytes() == b.tobytes()
        plain, strided = {"A": a, "B": b}, {"A": a_t, "B": b_s}
        for mode in ("vector", "verify"):
            monkeypatch.setenv("REPRO_SIM_MODE", mode)
            want, = exe.run(plain)
            one, = exe.run(strided)
            two, = exe.run(strided)
            mixed = exe.run_batch([strided, plain, strided])
            assert one.tobytes() == two.tobytes() == want.tobytes()
            assert [o.tobytes() for (o,) in mixed] == [want.tobytes()] * 3
        np.testing.assert_allclose(want, a @ b, rtol=1e-3, atol=1e-4)


    @staticmethod
    def _arrays():
        base = np.arange(7 * 9, dtype=np.float32).reshape(7, 9)
        frozen = base.copy()
        frozen.flags.writeable = False
        return {
            "contiguous": base.copy(),
            "sliced rows": base.copy()[2:6],  # C-contiguous, offset
            "sliced columns": base.copy()[:, 1:8],
            "transposed": base.copy().T,
            "read-only": frozen,
        }

    @pytest.mark.parametrize("writeable", [False, True])
    @pytest.mark.parametrize(
        "name", ["contiguous", "sliced rows", "sliced columns",
                 "transposed", "read-only"],
    )
    def test_window_views_equal_as_strided(self, name, writeable):
        """A C-contiguous array's windows come straight from its buffer;
        shape, strides, bytes and writeability are ``as_strided``'s."""
        arr = self._arrays()[name]
        extent = (2, 3)
        shape = tuple(d - e + 1 for d, e in zip(arr.shape, extent)) + extent
        got = plan_module._window_view(arr, shape, arr.strides * 2, writeable)
        want = as_strided(arr, shape, arr.strides * 2, writeable=writeable)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable == want.flags.writeable
        assert got.flags.writeable == (writeable and arr.flags.writeable)
        if not got.flags.writeable:
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0, 0, 0] = -1.0
        else:
            got[1, 2, 0, 1] = -1.0  # element (1, 3) of the array
            assert arr[1, 3] == -1.0


# ---------------------------------------------------------------------------
# (d) two threads first-touching one plan
# ---------------------------------------------------------------------------


class TestThreadsFirstTouch:
    def test_two_chunk_shapes_two_threads(self, monkeypatch):
        """``mtv`` 64MB cut in two jobs: lanes 0:1024 and 1024:2048 are
        two chunk shapes, each built by the thread that first needs it."""
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        wl = make_workload("mtv", "64MB")
        inputs = wl.random_inputs(0)
        exe = repro.compile(wl, target="upmem")
        module = exe.lowered

        build_chunk = plan_module.KernelPlan._build_chunk

        def run_at(width):
            _forget_plan(exe)
            monkeypatch.setenv("REPRO_MAX_WORKERS", str(width))
            threads = set()

            def spy(plan, first, L):
                threads.add(threading.get_ident())
                return build_chunk(plan, first, L)

            monkeypatch.setattr(plan_module.KernelPlan, "_build_chunk", spy)
            out, = exe.run(inputs)
            builders = len(threads)
            plan = plan_for(module)
            assert plan.check_invariants() == []
            return out.tobytes(), sorted(plan._chunks), builders

        serial, one_shape, _ = run_at(1)
        threaded, two_shapes, builders = run_at(2)
        grid = module.n_dpus
        assert one_shape == [(0, grid)]
        assert two_shapes == [(0, grid // 2), (grid // 2, grid // 2)]
        assert builders == 2
        assert threaded == serial

    def test_threads_that_build_together_share_one_plan(self, monkeypatch):
        """Two threads that first touch a module at once both build a
        plan; the cache keeps the first one stored and hands it to both
        — the other thread's would hold chunk shapes nothing else sees."""
        exe = _fresh_exe(*_MTV)
        module = exe.lowered
        both_building = threading.Barrier(2)
        init = plan_module.KernelPlan.__init__

        def held_init(plan, m):
            init(plan, m)
            both_building.wait(timeout=30)

        monkeypatch.setattr(plan_module.KernelPlan, "__init__", held_init)
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(plan_for(module)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 2
        assert got[0] is got[1] is plan_for(module)

    def test_many_threads_one_small_plan(self):
        """More threads than cores hammering one plan at four chunk
        shapes with a short switch interval: every result is the serial
        one and the table ends inside its caps."""
        import sys

        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        module = exe.lowered
        batches = {
            n: [wl.random_inputs(10 * n + i) for i in range(n)]
            for n in (1, 2, 3, 4)
        }
        want = {
            n: [o.tobytes() for (o,) in exe.run_batch(batch)]
            for n, batch in batches.items()
        }
        _forget_plan(exe)
        failures = []

        def worker(n):
            try:
                for _ in range(5):
                    got = [o.tobytes() for (o,) in exe.run_batch(batches[n])]
                    if got != want[n]:
                        failures.append(n)
            except Exception as err:  # surfaced below, with the thread's n
                failures.append((n, repr(err)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with host_threads(1):  # each call inline on its own thread
                threads = [
                    threading.Thread(target=worker, args=(1 + i % 4,))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        plan = plan_for(module)
        assert len(plan._chunks) == 4
        assert plan.check_invariants() == []
        assert plan._element_bytes == sum(
            p.held for c in plan._chunks.values() for p in c.places
        )


# ---------------------------------------------------------------------------
# (e) the table's caps and lifetime
# ---------------------------------------------------------------------------


class TestTableBounds:
    def test_caps_hold_over_a_hundred_batch_sizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        # A budget a few chunk shapes exhaust: indices past it are
        # rebuilt per call, and the answers do not change.
        monkeypatch.setattr(plan_module, "_ELEMENT_BYTES", 4096)
        wl, params = _VA_TRIMMED
        exe = _fresh_exe(wl, params)
        inputs = wl.random_inputs(0)
        want, = exe.run(inputs)
        plan = plan_for(exe.lowered)
        for n in range(1, 101):
            outs = exe.run_batch([inputs] * n)
            assert outs[-1][0].tobytes() == want.tobytes()
            assert len(plan._chunks) <= plan_module._CHUNK_SHAPES
            held = sum(p.held for c in plan._chunks.values() for p in c.places)
            assert held <= plan._element_bytes <= 4096
        assert len(plan._chunks) == plan_module._CHUNK_SHAPES
        # oldest first: the survivors are the last batch sizes run
        assert min(L for _, L in plan._chunks) == (
            101 - plan_module._CHUNK_SHAPES
        ) * exe.lowered.n_dpus
        assert plan.check_invariants() == []

    def test_the_table_dies_with_its_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        wl, params = _MTV
        module = default_engine().compile(wl, params, opt_level="O3").module
        module.__dict__.pop("_plans", None)
        plan = plan_for(module)
        state = FunctionalExecutor(module).prepare(wl.random_inputs(0))
        plan.run_points([state], range(module.n_dpus))
        del module.__dict__["_plans"]  # the memo lets go: ours is the last
        (chunk,) = plan._chunks.values()
        # (slotted records take no weak reference; their arrays do)
        refs = [weakref.ref(plan), weakref.ref(chunk.lanes),
                weakref.ref(chunk.places[0].origin[0])]
        del plan, chunk
        gc.collect()
        assert [r() for r in refs] == [None, None, None]
