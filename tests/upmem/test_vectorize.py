"""The TIR->NumPy vectorizer: bit-for-bit equivalence gate, and the
out-of-model kernels it refuses."""

import dataclasses
import pickle
import threading

import numpy as np
import pytest

from repro.autotune.compile import CompileEngine, default_engine
from repro.lowering import GridDim, LoweredModule, TransferSpec
from repro.pipeline import ArtifactCache
from repro.tir import (
    And,
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    IfThenElse,
    IntImm,
    Max,
    Min,
    SeqStmt,
    Var,
)
from repro.upmem import (
    FunctionalExecutor, VectorizeError, VerifyMismatch, plan_for, sim_mode,
)
from repro.upmem.vectorize import host_program_for, ops, plan as plan_module
from repro.upmem.vectorize import host as host_module
from repro.upmem.interp import InterpError, Interpreter, _np_dtype
from repro.workloads import make_workload, size_labels, workload_names
from repro.workloads.tensor_ops import gemv, geva, mmtv, mtv, red, ttv, va

# Each family with a shape that exercises boundary handling (misaligned)
# and one aligned shape; O0 keeps the boundary predicates in the kernel.
SWEEP = [
    ("va", va(1024), {"n_dpus": 8, "n_tasklets": 2, "cache": 8}),
    ("va-tail", va(997), {"n_dpus": 8, "n_tasklets": 2, "cache": 8}),
    ("geva", geva(500), {"n_dpus": 4, "n_tasklets": 2, "cache": 8}),
    ("red", red(512), {"n_dpus": 4, "n_tasklets": 2, "cache": 8}),
    ("red-tail", red(509), {"n_dpus": 4, "n_tasklets": 2, "cache": 8}),
    (
        "mtv",
        mtv(64, 64),
        {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 2, "cache": 8,
         "host_threads": 1},
    ),
    (
        "mtv-rfactor",
        mtv(37, 50),
        {"m_dpus": 4, "k_dpus": 2, "n_tasklets": 2, "cache": 8,
         "host_threads": 1},
    ),
    (
        "gemv",
        gemv(37, 50),
        {"m_dpus": 4, "k_dpus": 2, "n_tasklets": 2, "cache": 8,
         "host_threads": 1},
    ),
    ("ttv", ttv(4, 10, 24), {"i_dpus": 2, "j_dpus": 2, "n_tasklets": 2,
                             "cache": 8}),
    ("mmtv", mmtv(3, 9, 17), {"i_dpus": 3, "j_dpus": 2, "n_tasklets": 2,
                              "cache": 8}),
]


def _compile(wl, params, level):
    module = default_engine().compile(wl, params, opt_level=level).module
    assert module is not None, f"{wl.name} rejected params {params}"
    return module


def _run(module, inputs, mode, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_MODE", mode)
    return [a.copy() for a in FunctionalExecutor(module).run(inputs)]


class TestEquivalenceGate:
    @pytest.mark.parametrize("level", ["O0", "O3"])
    @pytest.mark.parametrize(
        "label,wl,params", SWEEP, ids=[s[0] for s in SWEEP]
    )
    def test_vector_matches_scalar_bitwise(
        self, label, wl, params, level, monkeypatch
    ):
        module = _compile(wl, params, level)
        inputs = wl.random_inputs(0)
        scalar = _run(module, inputs, "scalar", monkeypatch)
        vector = _run(module, inputs, "vector", monkeypatch)
        for s, v in zip(scalar, vector):
            assert s.dtype == v.dtype and s.shape == v.shape
            assert s.tobytes() == v.tobytes()
        # verify mode runs both and must agree with itself
        out = _run(module, inputs, "verify", monkeypatch)
        for s, o in zip(scalar, out):
            assert s.tobytes() == o.tobytes()
        np.testing.assert_allclose(
            vector[0], wl.reference_output(inputs), rtol=1e-3, atol=1e-4
        )

    def test_no_fallbacks_on_registered_workloads(self, monkeypatch):
        """Every plan of every family builds: a kernel outside the
        vector model would raise ``VectorizeError`` here."""
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        for label, wl, params in SWEEP:
            module = _compile(wl, params, "O3")
            FunctionalExecutor(module).run(wl.random_inputs(1))
            plan_for(module)
            for which in ("pre", "post"):
                host_program_for(module, which)

    def test_lane_chunking_is_bitwise_stable(self, monkeypatch):
        """Odd chunk sizes and sharded run_points agree with one shot."""
        wl = mtv(37, 50)
        params = {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 2, "cache": 8,
                  "host_threads": 1}
        module = _compile(wl, params, "O0")
        inputs = wl.random_inputs(2)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        ref = _run(module, inputs, "vector", monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(
                plan_module, "_LANE_BUDGET_BYTES",
                3 * plan_for(module)._bytes_per_lane,
            )
            assert plan_for(module).max_lanes(8) == 3
            chunked = _run(module, inputs, "vector", mp)
        assert ref[0].tobytes() == chunked[0].tobytes()
        # manual two-shard phased execution (what run_batch does)
        fexec = FunctionalExecutor(module)
        arrays = fexec.prepare(inputs)
        lanes = len(fexec.grid_points())
        fexec.run_points([arrays], range(lanes // 2))
        fexec.run_points([arrays], range(lanes // 2, lanes))
        out, = fexec.finalize(arrays)
        assert out.tobytes() == ref[0].tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_run_batch_workers_bitwise_stable(self, workers, monkeypatch):
        """Thread-pool sharding over the vector path stays byte-equal
        to a sequential scalar run at any worker count."""
        import repro
        import repro.target.executor as executor_module

        monkeypatch.setenv("REPRO_SIM_MODE", "scalar")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        wl = mmtv(3, 9, 17)
        exe = repro.compile(
            wl,
            target="upmem",
            params={"i_dpus": 3, "j_dpus": 2, "n_tasklets": 2, "cache": 8},
        )
        batch = [wl.random_inputs(s) for s in range(3)]
        ref = [out[0].copy() for out in exe.run_batch(batch)]
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        monkeypatch.setenv("REPRO_MAX_WORKERS", str(workers))
        monkeypatch.setattr(executor_module, "MIN_JOB_BYTES", 1)
        got = exe.run_batch(batch)
        for r, (g,) in zip(ref, got):
            assert r.tobytes() == g.tobytes()

    @pytest.mark.slow
    def test_full_size_sweep_4mb(self, monkeypatch):
        """Every registered workload's 4MB instance through the gate."""
        from repro.target import default_params

        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        for name in workload_names():
            assert "4MB" in size_labels(name)
            wl = make_workload(name, "4MB")
            module = default_engine().compile(
                wl, default_params(wl), opt_level="O3"
            ).module
            assert module is not None, name
            out, = FunctionalExecutor(module).run(wl.random_inputs(0))
            np.testing.assert_allclose(
                out, wl.reference_output(wl.random_inputs(0)),
                rtol=1e-2, atol=1e-3,
            )


def _toy_module(kernel, out_buf, grid_extent=4, gvar=None, inputs=()):
    gvar = gvar or Var("b")
    return LoweredModule(
        name="toy",
        grid=[GridDim("blockIdx.x", gvar, grid_extent)],
        kernel=kernel,
        transfers=[],
        host_pre=[],
        host_post=[],
        inputs=list(inputs),
        outputs=[out_buf],
    ), gvar


#: The per-DPU output row of :func:`_tile_module`, by width.
_O_M = {w: Buffer("O_m", (1, w), "float32", scope="mram") for w in (2, 4)}

#: A 4-element input, and the per-DPU tile every lane copies it to.
_IN4 = Buffer("In", (4,), "float32")
_A_M = Buffer("A_m", (4,), "float32", scope="mram")


def _store_k(value, k):
    """``O_m[0, k] = value`` on a 4-wide output row."""
    return BufferStore(_O_M[4], value, [IntImm(0), k])


def _tile_module(kernel, gvar, lanes, width, wram=(), h2d=None):
    """``lanes`` DPUs, each with an ``O_m`` row of ``width`` that D2H
    puts on row ``blockIdx`` of ``Out``; ``h2d = (In, In_m)`` hands every
    lane a copy of the whole ``In``."""
    out = Buffer("Out", (lanes, width), "float32")
    tile = _O_M[width]
    transfers = [TransferSpec("d2h", out, tile, (gvar, IntImm(0)), (1, width))]
    inputs = []
    if h2d is not None:
        src, local = h2d
        transfers.insert(
            0, TransferSpec("h2d", src, local, (IntImm(0),), local.shape)
        )
        inputs = [src]
    return LoweredModule(
        name="toy", grid=[GridDim("blockIdx.x", gvar, lanes)], kernel=kernel,
        transfers=transfers, host_pre=[], host_post=[], inputs=inputs,
        outputs=[out], wram_buffers=list(wram),
    )


def _both_modes(module, inputs, monkeypatch):
    """(scalar bytes, vector bytes), or the InterpError each raised."""
    got = []
    for mode in ("scalar", "vector"):
        monkeypatch.setenv("REPRO_SIM_MODE", mode)
        try:
            out, = FunctionalExecutor(module).run(inputs)
            got.append(out.tobytes())
        except InterpError as err:
            got.append(err)
    return got


class TestAxisIndexUnderLaneMask:
    """Inside an axis op a 1-D index is axis-shaped ``(n,)``; the lane
    mask must excuse *lanes*, never axis positions."""

    @staticmethod
    def _module(lanes, width, active_below, extent):
        """``if b < active_below: for k in range(extent(b)): O_m[0, k] = b + k``"""
        b, k = Var("b"), Var("k")
        store = BufferStore(_O_M[width], b + k + 1.0, [IntImm(0), k])
        kernel = IfThenElse(b < active_below, For(k, extent(b), store))
        return _tile_module(kernel, b, lanes, width)

    def test_masked_lanes_long_trips_are_excused(self, monkeypatch):
        """n != L: the two live lanes stay inside the row; the masked
        lanes' longer trip counts (n = 6 over a 4-wide row, L = 4) used
        to die on a NumPy broadcast error."""
        module = self._module(4, 4, 2, lambda b: b + 3)
        scalar, vector = _both_modes(module, {}, monkeypatch)
        assert isinstance(scalar, bytes) and scalar == vector
        want = np.zeros((4, 4), np.float32)
        want[0, :3] = [1, 2, 3]
        want[1, :4] = [2, 3, 4, 5]
        assert vector == want.tobytes()

    @pytest.mark.parametrize("trips", [4, 3], ids=["n==L", "n!=L"])
    def test_live_lane_off_the_row_is_reported(self, trips, monkeypatch):
        """Positions 2.. are off a 2-wide row for the live lanes 0 and 1.
        With n == L, ANDing the position mask with the lane mask
        ``[T, T, F, F]`` excused them and the store was clamped."""
        module = self._module(4, 2, 2, lambda b: IntImm(trips))
        for got in _both_modes(module, {}, monkeypatch):
            assert isinstance(got, InterpError) and "O_m" in str(got)


class TestOutOfRangeIsNeverClamped:
    """An unmasked access whose *endpoint* leaves the buffer must not
    take the block form: vector raises exactly where scalar does."""

    S = Buffer("S_w", (4,), "float32", scope="wram")

    def _raises_naming(self, kernel, b, name, monkeypatch):
        module = _tile_module(kernel, b, 3, 4, wram=[self.S])
        for got in _both_modes(module, {}, monkeypatch):
            assert isinstance(got, InterpError), got
            assert name in str(got)

    @pytest.mark.parametrize("coeff,offset", [(1, 1), (1, -1), (-1, 4), (2, -2)])
    def test_axis_affine_load(self, coeff, offset, monkeypatch):
        b, k = Var("b"), Var("k")
        load = BufferLoad(self.S, [k * coeff + offset])
        kernel = For(k, 4 if abs(coeff) == 1 else 3,
                     BufferStore(_O_M[4], load, [IntImm(0), k]))
        self._raises_naming(kernel, b, "S_w", monkeypatch)

    @pytest.mark.parametrize("coeff,offset", [(1, 1), (-1, 4), (-1, 2)])
    def test_axis_affine_store(self, coeff, offset, monkeypatch):
        b, k = Var("b"), Var("k")
        kernel = For(k, 4, BufferStore(_O_M[4], b + 1.0,
                                       [IntImm(0), k * coeff + offset]))
        self._raises_naming(kernel, b, "O_m", monkeypatch)

    def test_load_inside_a_reduction(self, monkeypatch):
        b, k = Var("b"), Var("k")
        cell = [IntImm(0), IntImm(0)]
        kernel = For(k, 5, BufferStore(
            _O_M[4],
            BufferLoad(_O_M[4], cell) + BufferLoad(self.S, [k]),
            cell,
        ))
        self._raises_naming(kernel, b, "S_w", monkeypatch)

    def test_scalar_index(self, monkeypatch):
        b = Var("b")
        kernel = BufferStore(_O_M[4], BufferLoad(self.S, [IntImm(4)]),
                             [IntImm(0), IntImm(0)])
        self._raises_naming(kernel, b, "S_w", monkeypatch)

    def test_tile_base_past_the_tensor_moves_nothing(self, monkeypatch):
        """The scalar path gives a tile that lies wholly off its tensor
        no elements (H2D: zeros; D2H: no write) and raises nothing; the
        block path must not pull such a base back inside."""
        src = Buffer("In", (6,), "float32")
        out = Buffer("Out", (6,), "float32")
        in_m = Buffer("In_m", (2,), "float32", scope="mram")
        out_m = Buffer("Out_m", (2,), "float32", scope="mram")
        b, k = Var("b"), Var("k")
        kernel = For(k, 2, BufferStore(
            out_m, BufferLoad(in_m, [k]) + 10.0, [k]))
        module = LoweredModule(
            name="toy", grid=[GridDim("blockIdx.x", b, 5)], kernel=kernel,
            transfers=[
                # lanes 3 and 4 read from 7 and 9, past the 6 elements
                TransferSpec("h2d", src, in_m, (b * 2 + 1,), (2,)),
                # lane 3 writes at 6, lane 4 at 8: off the tensor
                TransferSpec("d2h", out, out_m, (b * 2,), (2,)),
            ],
            host_pre=[], host_post=[], inputs=[src], outputs=[out],
        )
        feed = {"In": np.arange(1, 7, dtype=np.float32)}
        scalar, vector = _both_modes(module, feed, monkeypatch)
        want = np.array([12, 13, 14, 15, 16, 10], np.float32)
        assert scalar == vector == want.tobytes()


class TestClampedDma:
    """A DMA base is clamped per dimension into its buffer (the scalar
    interpreter's ``ravel_multi_index(mode="clip")``) and the burst is cut
    at the buffer's end — in both modes, for a base shared by all lanes
    and for one base per lane."""

    @pytest.mark.parametrize(
        "base,want",
        [
            (lambda b: IntImm(-3), [[1, 2, 3, 4]] * 4),  # negative: from 0
            (lambda b: IntImm(6), [[7, 8, 0, 0]] * 4),  # cut at the end
            (lambda b: IntImm(11), [[8, 0, 0, 0]] * 4),  # past: last element
            (lambda b: b * 5 - 3, [[1, 2, 3, 4], [3, 4, 5, 6],
                                   [8, 0, 0, 0], [8, 0, 0, 0]]),
        ],
        ids=["negative", "tail", "past-the-end", "per-lane"],
    )
    def test_base_outside_the_buffer(self, base, want, monkeypatch):
        src = Buffer("In", (8,), "float32")
        in_m = Buffer("In_m", (8,), "float32", scope="mram")
        w = Buffer("W", (4,), "float32", scope="wram")
        b = Var("b")
        kernel = SeqStmt([
            DmaCopy(w, [IntImm(0)], in_m, [base(b)], 4),
            DmaCopy(_O_M[4], [IntImm(0), IntImm(0)], w, [IntImm(0)], 4),
        ])
        module = _tile_module(kernel, b, 4, 4, wram=[w], h2d=(src, in_m))
        feed = {"In": np.arange(1, 9, dtype=np.float32)}
        scalar, vector = _both_modes(module, feed, monkeypatch)
        assert scalar == vector == np.array(want, np.float32).tobytes()


class TestTileOffTheTensor:
    """A transfer tile whose origin is off its tensor — before the start
    or past the end — moves only its on-tensor part; the rest is padding
    on the way in and dropped on the way out.  The scalar reference used
    to hand a negative origin to NumPy as a from-the-end slice."""

    @staticmethod
    def _run_all(module, feed, monkeypatch):
        got = {}
        for mode in ("scalar", "vector", "verify"):
            monkeypatch.setenv("REPRO_SIM_MODE", mode)
            out, = FunctionalExecutor(module).run(feed)
            got[mode] = out.tobytes()
        return got

    @pytest.mark.parametrize(
        "origin,want",
        [
            (lambda b: b * 4 - 2, [[0, 0, 1, 2], [3, 4, 5, 6],
                                   [7, 8, 0, 0], [0, 0, 0, 0]]),
            (lambda b: b - 5, [[0, 0, 0, 0], [0, 0, 0, 0],
                               [0, 0, 0, 1], [0, 0, 1, 2]]),
            (lambda b: b * 3 + 5, [[6, 7, 8, 0], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]]),
        ],
        ids=["straddles-both-ends", "negative", "past-the-end"],
    )
    def test_h2d_pads_the_off_tensor_part(self, origin, want, monkeypatch):
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
        got = self._run_all(module, feed, monkeypatch)
        assert set(got.values()) == {np.array(want, np.float32).tobytes()}

    @pytest.mark.parametrize(
        "origin,want",
        [
            (lambda b: b * 4 - 2, [12, 13, 20, 21, 22, 23, 30, 31, 32, 33]),
            (lambda b: b * 4 - 9, [31, 32, 33, 40, 41, 42, 43, 0, 0, 0]),
            (lambda b: b * 4 + 7, [0, 0, 0, 0, 0, 0, 0, 10, 11, 12]),
        ],
        ids=["straddles-both-ends", "negative", "past-the-end"],
    )
    def test_d2h_drops_the_off_tensor_part(self, origin, want, monkeypatch):
        """Lane ``b`` writes ``10 * (b + 1) + k`` at tile position ``k``."""
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
        got = self._run_all(module, {}, monkeypatch)
        assert set(got.values()) == {np.array(want, np.float32).tobytes()}


#: What :data:`_FEED4` puts in every lane's ``A_m``.
_FEED4 = {"In": np.array([1.5, -2.25, 0.0, 3.0], np.float32)}


def _modes_agree_on(module, feed, want, monkeypatch):
    """Scalar, vector and verify all give ``want``, byte for byte."""
    want = np.array(want, np.float32).tobytes()
    for mode in ("scalar", "vector", "verify"):
        monkeypatch.setenv("REPRO_SIM_MODE", mode)
        out, = FunctionalExecutor(module).run(feed)
        assert out.tobytes() == want, mode


def _items(module, feeds, lanes):
    """Each item's output once ``lanes`` of the items prepared from
    ``feeds`` have run."""
    fexec = FunctionalExecutor(module)
    states = [fexec.prepare(feed) for feed in feeds]
    fexec.run_points(states, lanes)
    return [fexec.finalize(state)[0].tolist() for state in states]


def _store_to_host():
    out = Buffer("Out", (8,), "float32")
    i = Var("i")
    body = For(i, 2, BufferStore(out, (i + 1) * 2, [IntImm(0)]))
    return _toy_module(body, out, grid_extent=4)[0], "BufferStore", "Out"


def _stacked_host_access():
    inp = Buffer("In", (4,), "float32")
    out = Buffer("Out", (4,), "float32")
    gvar = Var("b")
    kernel = BufferStore(out, BufferLoad(inp, [gvar]) + 1.0, [gvar])
    module, _ = _toy_module(kernel, out, gvar=gvar, inputs=[inp])
    return module, "BufferStore", "Out"


def _dma_from_host(guarded):
    b, k = Var("b"), Var("k")
    dma = DmaCopy(_A_M, [IntImm(0)], _IN4, [IntImm(1)], 3)
    kernel = SeqStmt([
        IfThenElse(b < 2, dma) if guarded else dma,
        For(k, 4, _store_k(BufferLoad(_A_M, [k]) + b, k)),
    ])
    module = _tile_module(kernel, b, 4, 4, h2d=(_IN4, _A_M))
    return module, "DmaCopy", "In"


def _reduction_into_host():
    out = Buffer("Out", (2,), "float32")
    i = Var("i")
    acc = BufferLoad(out, [IntImm(0)])
    kernel = For(i, 2, BufferStore(out, acc + (i + 1) * 2.0, [IntImm(0)]))
    return _toy_module(kernel, out, grid_extent=4)[0], "BufferStore", "Out"


def _host_read_modify_write():
    h = Buffer("H", (2,), "float32")
    kernel = BufferStore(h, BufferLoad(h, [IntImm(0)]) + 1.0, [IntImm(0)])
    return _toy_module(kernel, h, grid_extent=4)[0], "BufferStore", "H"


#: Kernels that address a host tensor: (module builder, feeds, lanes,
#: what the scalar reference writes to each item's output).
OUT_OF_MODEL = [
    (_store_to_host, [{}], range(4), [[4, 0, 0, 0, 0, 0, 0, 0]]),
    (
        # Three stacked items, the first cut: lanes 2-11.
        _stacked_host_access,
        [{"In": np.arange(4, dtype=np.float32) * k} for k in (1, 10, 100)],
        range(2, 12),
        [[0, 0, 3, 4], [1, 11, 21, 31], [1, 101, 201, 301]],
    ),
    (
        lambda: _dma_from_host(guarded=False), [_FEED4], range(4),
        [[[-2.25, 0, 3, 3], [-1.25, 1, 4, 4], [-0.25, 2, 5, 5],
          [0.75, 3, 6, 6]]],
    ),
    (
        lambda: _dma_from_host(guarded=True), [_FEED4], range(4),
        [[[-2.25, 0, 3, 3], [-1.25, 1, 4, 4], [3.5, -0.25, 2, 5],
          [4.5, 0.75, 3, 6]]],
    ),
    (_reduction_into_host, [{}], range(4), [[24, 0]]),
    (_host_read_modify_write, [{}], range(4), [[4, 0]]),
]


class TestFallbacks:
    """There are none: a kernel the vector plan cannot run is refused."""

    @pytest.mark.parametrize(
        "build,feeds,lanes,want",
        OUT_OF_MODEL,
        ids=["store-to-host", "stacked-items-touch-host", "dma-from-host",
             "dma-from-host-under-a-lane-mask", "reduction-into-host",
             "host-read-modify-write"],
    )
    def test_out_of_model_kernel_fails_loudly(
        self, build, feeds, lanes, want, monkeypatch
    ):
        """A kernel that loads, stores or DMAs a host tensor (nothing the
        lowering emits) raises ``VectorizeError`` naming the statement
        and the buffer when its plan is built, under vector and verify
        alike, and no plan is kept.  The scalar reference still runs it
        and writes what it always wrote."""
        module, kind, name = build()
        for mode in ("vector", "verify"):
            monkeypatch.setenv("REPRO_SIM_MODE", mode)
            with pytest.raises(
                VectorizeError, match=f"{kind} of host buffer '{name}'"
            ):
                _items(module, feeds, lanes)
        assert "kernel" not in module.__dict__.get("_plans", {})
        monkeypatch.setenv("REPRO_SIM_MODE", "scalar")
        got = _items(module, feeds, lanes)
        assert np.array(got, np.float32).tobytes() == (
            np.array(want, np.float32).tobytes()
        )

    def test_verify_mismatch_raises(self, monkeypatch):
        wl = va(64)
        module = _compile(wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8},
                          "O3")
        fexec = FunctionalExecutor(module, mode="verify")
        real = plan_for(module)

        class _LyingPlan:
            def check_invariants(self, lanes):
                return real.check_invariants(lanes)

            def run_points(self, states, lanes):
                real.run_points(states, lanes)
                out = module.outputs[0]
                states[0][out] += np.float32(1.0)  # corrupt the vector result

        monkeypatch.setitem(module.__dict__["_plans"], "kernel", _LyingPlan())
        with pytest.raises(VerifyMismatch):
            fexec.run(wl.random_inputs(0))

    def test_bad_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "warp-speed")
        with pytest.raises(ValueError):
            sim_mode()
        assert sim_mode("vector") == "vector"


#: Every lane's ``O_m[0, 0]``.
_CELL = BufferLoad(_O_M[4], [IntImm(0), IntImm(0)])


class TestUnderALaneMask:
    """A boundary ``if`` that only some DPUs take: what it guards writes
    the live lanes only, as the interpreter does point by point."""

    @pytest.mark.parametrize(
        "kernel,want",
        [
            (
                lambda a, b, k: IfThenElse(
                    b < 2, BufferStore(_O_M[4], b + 1.0, [IntImm(0), b])
                ),
                [[1, 0, 0, 0], [0, 2, 0, 0], [0] * 4, [0] * 4],
            ),
            (
                # Lane b runs b + 1 trips; the loop ends when the live
                # lanes are done, before lane 3's fourth trip.
                lambda a, b, k: IfThenElse(
                    b < 3, For(k, b + 1, _store_k(k + 1.0, IntImm(0)))
                ),
                [[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0], [0] * 4],
            ),
            (
                lambda a, b, k: IfThenElse(b < 2, DmaCopy(
                    _O_M[4], [IntImm(0), IntImm(0)], _A_M, [b], 3
                )),
                [[1.5, -2.25, 0, 0], [-2.25, 0, 3, 0], [0] * 4, [0] * 4],
            ),
            (
                lambda a, b, k: IfThenElse(b < 3, For(k, 4, BufferStore(
                    _O_M[4], BufferLoad(_O_M[4], [IntImm(0), b]) + a,
                    [IntImm(0), b],
                ))),
                [[2.25, 0, 0, 0], [0, 2.25, 0, 0], [0, 0, 2.25, 0], [0] * 4],
            ),
            (
                lambda a, b, k: For(k, 4, IfThenElse(b > 5, _store_k(a, k))),
                [[0] * 4] * 4,
            ),
        ],
        ids=["lane-indexed-store", "lane-trip-count", "dma",
             "lane-indexed-accumulator", "guard-no-lane-passes"],
    )
    def test_only_live_lanes_write(self, kernel, want, monkeypatch):
        b, k = Var("b"), Var("k")
        module = _tile_module(
            kernel(BufferLoad(_A_M, [k]), b, k), b, 4, 4, h2d=(_IN4, _A_M)
        )
        _modes_agree_on(module, _FEED4, want, monkeypatch)


class TestNotAScan:
    """Loops shaped almost like a reduction or a map: each runs step by
    step, with the interpreter's result."""

    @pytest.mark.parametrize(
        "kernel,want",
        [
            (
                # Each step doubles the accumulator: not a sum of terms.
                lambda b, k: SeqStmt([
                    _store_k(b + 1.0, IntImm(0)),
                    For(k, 4, _store_k(_CELL + _CELL, IntImm(0))),
                ]),
                [[16, 0, 0, 0], [32, 0, 0, 0], [48, 0, 0, 0], [64, 0, 0, 0]],
            ),
            (
                # Integer terms: each step rounds into float32 on its own.
                lambda b, k: For(k, 4, _store_k(_CELL + k * (b + 1), IntImm(0))),
                [[6, 0, 0, 0], [12, 0, 0, 0], [18, 0, 0, 0], [24, 0, 0, 0]],
            ),
            (
                # The guard reads the row the loop writes, one step ahead.
                lambda b, k: For(k, 3, IfThenElse(
                    BufferLoad(_O_M[4], [IntImm(0), k]) < 0.5,
                    _store_k(k + 1.0, k + 1),
                )),
                [[0, 1, 0, 3]] * 4,
            ),
        ],
        ids=["summand-reads-the-accumulator", "integer-terms",
             "guard-reads-the-row"],
    )
    def test_runs_step_by_step(self, kernel, want, monkeypatch):
        b, k = Var("b"), Var("k")
        module = _tile_module(kernel(b, k), b, 4, 4)
        _modes_agree_on(module, {}, want, monkeypatch)


class TestScalarSemantics:
    """Values that no lane or axis varies are computed as the
    interpreter computes them, with Python's rules.  Only a host program
    reads a host tensor, so these run there."""

    C = Buffer("C", (4,), "float32")

    def test_a_scalar_and_short_circuits(self, monkeypatch):
        """``j < 4 and In[j] > 0`` never reads ``In[4]``."""
        j = Var("j")
        cond = And(j < 4, BufferLoad(_IN4, [j]) > 0.0)
        count = BufferStore(
            self.C, BufferLoad(self.C, [IntImm(0)]) + 1.0, [IntImm(0)]
        )
        module = _host_module(
            For(j, 5, IfThenElse(cond, count)), self.C, inputs=[_IN4]
        )
        _modes_agree_on(module, _FEED4, [2, 0, 0, 0], monkeypatch)

    @pytest.mark.parametrize("first", [5.0, 0.1])
    def test_a_min_is_typed_by_the_value_it_returns(self, first, monkeypatch):
        """``min(In[0], 3.0)`` is the Python float 3.0 or a float32,
        whichever is smaller; the lane variable beside it takes that
        value's type, as in the interpreter."""
        k = Var("k")
        low = Min(BufferLoad(_IN4, [IntImm(0)]), 3.0)
        store = BufferStore(self.C, low * (k + 1) * 0.1, [k])
        module = _host_module(For(k, 4, store), self.C, inputs=[_IN4])
        plan, = host_program_for(module, "post").plans
        assert plan.lane_vars == {k}
        feed = {"In": np.array([first, 0, 0, 0], np.float32)}
        row = [
            float(np.float32(min(np.float32(first), 3.0) * (lane + 1) * 0.1))
            for lane in range(4)
        ]
        _modes_agree_on(module, feed, row, monkeypatch)


def _host_module(stmt, out, inputs=()):
    """One DPU that does nothing, then ``stmt`` on the host."""
    return LoweredModule(
        name="toy", grid=[GridDim("blockIdx.x", Var("b"), 1)],
        kernel=Barrier(), transfers=[],
        host_pre=[], host_post=[stmt], inputs=list(inputs), outputs=[out],
    )


class TestHostPrograms:
    """A host loop runs its iterations as lanes only when they write
    disjoint slices and read nothing another iteration writes."""

    C = Buffer("C", (4,), "float32")

    @pytest.mark.parametrize(
        "body,want",
        [
            (
                lambda i, c: BufferStore(
                    c, BufferLoad(c, [Max(i - 1, 0)]) + 1.0, [i]
                ),
                [1, 2, 3, 4],
            ),
            (
                lambda i, c: SeqStmt([
                    Barrier(),
                    BufferStore(c, i * 2.0, [i]),
                ]),
                [0, 2, 4, 6],
            ),
        ],
        ids=["reads-the-last-iteration", "not-only-stores"],
    )
    def test_a_loop_that_is_not_lane_safe_runs_serially(
        self, body, want, monkeypatch
    ):
        i = Var("i")
        module = _host_module(For(i, 4, body(i, self.C)), self.C)
        plan, = host_program_for(module, "post").plans
        assert plan.lane_vars == set()
        _modes_agree_on(module, {}, want, monkeypatch)

    def test_a_guarded_reduction_writes_the_guarded_lanes(self, monkeypatch):
        """``for i: if i < 2: for k: C[i] += P[k, i]`` with ``i`` the lane."""
        i, k = Var("i"), Var("k")
        p = Buffer("P", (3, 4), "float32")
        acc = BufferLoad(self.C, [i])
        scan = For(k, 3, BufferStore(
            self.C, acc + BufferLoad(p, [k, i]), [i]
        ))
        module = _host_module(
            For(i, 4, IfThenElse(i < 2, scan)), self.C, inputs=[p]
        )
        plan, = host_program_for(module, "post").plans
        assert plan.lane_vars == {i}
        feed = {"P": np.arange(12, dtype=np.float32).reshape(3, 4) + 0.5}
        want = [feed["P"][:, 0].sum(), feed["P"][:, 1].sum(), 0, 0]
        _modes_agree_on(module, feed, want, monkeypatch)

    def test_an_inner_map_under_a_lane_loop_runs_step_by_step(
        self, monkeypatch
    ):
        """``for i: for k in min(i + 1, 3): Q[k, i] = P[k, i] * 2`` with
        ``i`` the lane: the inner loop is not scattered across lanes of a
        shared buffer.  (Its extent varies with ``i``, so it cannot join
        the lane nest as a constant-extent loop does.)"""
        i, k = Var("i"), Var("k")
        p, q = Buffer("P", (3, 4), "float32"), Buffer("Q", (3, 4), "float32")
        body = For(
            k, Min(i + 1, 3),
            BufferStore(q, BufferLoad(p, [k, i]) * 2.0, [k, i]),
        )
        module = _host_module(For(i, 4, body), q, inputs=[p])
        plan, = host_program_for(module, "post").plans
        assert plan.lane_vars == {i} and isinstance(plan.op, ops._ForOp)
        feed = {"P": np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5}
        rows, cols = np.indices((3, 4))
        want = np.where(rows <= cols, feed["P"] * 2, 0)
        _modes_agree_on(module, feed, want, monkeypatch)


class TestLaneCapKnob:
    def test_cap_above_the_lane_count_is_the_lane_count(self, monkeypatch):
        wl = va(64)
        module = _compile(wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8},
                          "O3")
        plan = plan_for(module)
        assert plan.max_lanes(2) == 2
        # A budget below one lane's buffers still runs a lane at a time.
        monkeypatch.setattr(plan_module, "_LANE_BUDGET_BYTES", 1)
        assert plan.max_lanes(2) == 1


class TestDtypeRegression:
    def test_int32_buffers_are_int32(self):
        buf = Buffer("I", (4,), "int32")
        assert _np_dtype(buf) is np.int32
        arr = np.zeros(buf.shape, _np_dtype(buf))
        i = Var("i")
        Interpreter({buf: arr}).run(For(i, 4, BufferStore(buf, i * 2, [i])), {})
        assert arr.dtype == np.int32 and list(arr) == [0, 2, 4, 6]

    def test_int32_round_trip_through_executor(self, monkeypatch):
        """An int32 MRAM tile written by the kernel and copied D2H."""
        out = Buffer("Out", (4,), "int32")
        tile = Buffer("O_i", (4,), "int32", scope="mram")
        b, i = Var("b"), Var("i")
        module = LoweredModule(
            name="toy", grid=[GridDim("blockIdx.x", b, 1)],
            kernel=For(i, 4, BufferStore(tile, i + 1, [i])),
            transfers=[TransferSpec("d2h", out, tile, (IntImm(0),), (4,))],
            host_pre=[], host_post=[], inputs=[], outputs=[out],
        )
        for mode in ("scalar", "vector", "verify"):
            monkeypatch.setenv("REPRO_SIM_MODE", mode)
            o, = FunctionalExecutor(module).run({})
            assert o.dtype == np.int32
            assert o.tobytes() == np.array([1, 2, 3, 4], np.int32).tobytes()


class TestPlanCache:
    def test_plan_reused_per_module(self):
        wl = va(128)
        module = _compile(wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8},
                          "O3")
        assert plan_for(module) is plan_for(module)
        assert host_program_for(module, "post") is host_program_for(
            module, "post"
        )

    def test_the_memo_is_the_modules_own(self):
        """A module rebuilt by ``dataclasses.replace`` starts without
        plans: they capture the old module's buffers."""
        wl = va(128)
        module = _compile(wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8},
                          "O3")
        plan = plan_for(module)
        copy = dataclasses.replace(module)
        assert "_plans" not in copy.__dict__
        assert plan_for(copy) is not plan and plan_for(module) is plan

    def test_plans_stay_out_of_the_disk_tier(self, tmp_path):
        """A module whose plans were built round-trips through the
        artifact cache's disk tier with no plan in the pickle, and
        builds its own on first use."""
        wl = mtv(48, 64)
        params = {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
                  "host_threads": 1, "unroll": 0}
        cache = ArtifactCache(disk_dir=str(tmp_path))
        art = CompileEngine(cache=cache).compile(wl, params)
        module = art.module
        inputs = wl.random_inputs(0)
        (want,) = FunctionalExecutor(module).run(inputs)
        assert "kernel" in module.__dict__["_plans"]
        cache.put(art)  # the disk entry again, now that plans exist
        (path,) = tmp_path.glob("*.pkl")
        body = path.read_bytes()
        assert b"_plans" not in body and b"KernelPlan" not in body
        restored = CompileEngine(
            cache=ArtifactCache(disk_dir=str(tmp_path))
        ).compile(wl, params)
        assert restored.module is not module
        assert "_plans" not in restored.module.__dict__
        (got,) = FunctionalExecutor(restored.module).run(inputs)
        assert got.tobytes() == want.tobytes()
        assert plan_for(restored.module) is not plan_for(module)

    def test_racing_threads_share_one_plan(self, monkeypatch):
        """Threads that first touch a module together each build a plan
        (the barrier holds every builder until all have started), and
        all of them return the one the memo kept."""
        wl = va(128)
        module = dataclasses.replace(_compile(
            wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8}, "O3"
        ))
        n = 4
        barrier = threading.Barrier(n, timeout=30)
        build = host_module.KernelPlan

        def slow_build(m):
            barrier.wait()
            return build(m)

        monkeypatch.setattr(host_module, "KernelPlan", slow_build)
        got = [None] * n

        def touch(i):
            got[i] = plan_for(module)

        threads = [threading.Thread(target=touch, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not barrier.broken
        assert got[0] is not None
        assert all(plan is got[0] for plan in got)
        assert module.__dict__["_plans"] == {"kernel": got[0]}

    def test_a_pickle_is_the_same_with_or_without_plans(self):
        """Plans are derived state: building them adds nothing to the
        module's pickle."""
        wl = va(128)
        module = dataclasses.replace(_compile(
            wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8}, "O3"
        ))
        before = pickle.dumps(module)
        plan_for(module)
        host_program_for(module, "post")
        assert set(module.__dict__["_plans"]) == {"kernel", "host_post"}
        assert pickle.dumps(module) == before
        assert "_plans" not in pickle.loads(before).__dict__

    def test_grid_points_memoized(self):
        wl = va(128)
        module = _compile(wl, {"n_dpus": 2, "n_tasklets": 1, "cache": 8},
                          "O3")
        fexec = FunctionalExecutor(module)
        assert fexec.grid_points() is fexec.grid_points()


class TestAccumulateContract:
    def test_np_accumulate_is_sequential_left_fold(self):
        """The reduce vectorization relies on accumulate being a strict
        left fold in float32 — guard against numpy changing that."""
        rng = np.random.default_rng(7)
        x = rng.random((5, 33), dtype=np.float32)
        acc = np.add.accumulate(x, axis=1)
        ref = np.empty_like(x)
        for r in range(x.shape[0]):
            s = np.float32(0.0)
            for c in range(x.shape[1]):
                s = s + x[r, c]
                ref[r, c] = s
        assert acc.tobytes() == ref.tobytes()

    @staticmethod
    def _left_fold(column):
        s = column[0]
        for v in column[1:]:
            s = s + v
        return s

    @pytest.mark.parametrize("lanes", [2, 3, 17, 64])
    def test_np_reduce_down_the_slow_axis_is_left_fold(self, lanes):
        """``_fold`` copies its scan buffer transposed and reduces down
        the slow axis of the C-contiguous copy: NumPy must add one row of
        every lane at a time, in row order."""
        rng = np.random.default_rng(lanes)
        x = (rng.standard_normal((300, lanes)) * 10.0 ** rng.integers(
            -8, 8, (300, lanes))).astype(np.float32)
        got = np.add.reduce(x, axis=0)
        want = np.array([self._left_fold(x[:, j]) for j in range(lanes)])
        assert x.flags.c_contiguous
        assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_np_reduce_of_negative_zeros_is_positive_zero(self):
        """The reduce starts from +0.0, not from the first term, so a
        column of -0.0 comes back +0.0 where the left fold keeps -0.0:
        why ``_fold`` passes ``initial=-0.0``, which keeps it."""
        x = np.full((5, 3), -0.0, np.float32)
        assert not np.signbit(np.add.reduce(x, axis=0)).any()
        assert np.signbit(np.add.reduce(x, axis=0, initial=-0.0)).all()
        assert np.signbit(self._left_fold(x[:, 0]))

    def test_np_reduce_of_one_long_column_is_pairwise(self):
        """One lane unpadded is contiguous along the fold, and NumPy sums
        that pairwise, not as the left fold: why ``_fold`` keeps
        ``np.add.accumulate`` for one lane (and pads wider rows)."""
        x = np.random.default_rng(3).random((10_000, 1), dtype=np.float32)
        want = self._left_fold(x[:, 0])
        assert np.add.reduce(x, axis=0)[0].tobytes() != want.tobytes()
        assert np.add.accumulate(x[:, 0])[-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lanes", [2, 17, 33])
    def test_np_reduce_of_padded_rows_keeps_the_first_nan(self, dtype, lanes):
        """NaN + NaN keeps one operand's NaN, and NumPy's ``add`` picks by
        code path.  On rows padded to whole SIMD registers every lane
        keeps the accumulator's, as ``np.add.accumulate`` does."""
        nan = np.array(np.nan, dtype)
        steps, width = ops._fold_rows(lanes, 2, dtype)
        for first, second in ((nan, -nan), (-nan, nan)):
            x = np.zeros((steps, width), dtype)
            x[0], x[1] = first, second
            want = np.add.accumulate(x[:, :lanes].T.copy(), axis=1)[:, -1]
            got = np.add.reduce(x, axis=0)[:lanes]
            assert got.tobytes() == want.tobytes()
            assert (np.signbit(got) == np.signbit(first)).all()
