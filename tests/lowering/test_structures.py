"""Less-common lowering structures: reorders, direct stores, multi-stage
kernels, TTV/MMTV nests and the RED double-rfactor pipeline."""

import numpy as np
import pytest

from repro import te
from repro.autotune.compile import default_engine
from repro.lowering import LoweringError, lower
from repro.schedule import Schedule
from repro.tir import Barrier, iter_stmts
from repro.upmem import FunctionalExecutor
from repro.workloads import mmtv, red, ttv


def mtv_tensors(m, k):
    A = te.placeholder((m, k), "float32", "A")
    B = te.placeholder((k,), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute((m,), lambda i: te.sum(A[i, kk] * B[kk], axis=kk), "C")
    return A, B, C


def run(mod, inputs):
    return FunctionalExecutor(mod).run(inputs)[0]


class TestReorderedNests:
    def test_reduce_loop_outside_spatial_loop(self):
        """Init nest must be emitted before the outer reduce loop."""
        m, k = 24, 32
        A, B, C = mtv_tensors(m, k)
        sch = Schedule(C)
        s = sch[C]
        (i,) = s.op.axis
        io, ii = s.split(i, nparts=4)
        ko, ki = s.split(s.op.reduce_axis[0], factor=8)
        s.reorder(io, ko, ii, ki)  # spatial ii nested inside reduce ko
        s.bind(io, "blockIdx.x")
        mod = lower(sch)
        rng = np.random.default_rng(0)
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random(k, dtype=np.float32)
        np.testing.assert_allclose(run(mod, {"A": a, "B": b}), a @ b, rtol=1e-4)

    def test_reduce_outer_with_misalignment(self):
        m, k = 23, 30
        A, B, C = mtv_tensors(m, k)
        sch = Schedule(C)
        s = sch[C]
        (i,) = s.op.axis
        io, ii = s.split(i, nparts=4)
        ko, ki = s.split(s.op.reduce_axis[0], factor=8)
        s.reorder(io, ko, ii, ki)
        s.bind(io, "blockIdx.x")
        mod = lower(sch)
        rng = np.random.default_rng(1)
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random(k, dtype=np.float32)
        np.testing.assert_allclose(run(mod, {"A": a, "B": b}), a @ b, rtol=1e-4)


class TestDirectStore:
    def test_reduction_without_write_cache(self):
        m, k = 24, 32
        A, B, C = mtv_tensors(m, k)
        sch = Schedule(C)
        s = sch[C]
        (i,) = s.op.axis
        io, ii = s.split(i, nparts=4)
        s.bind(io, "blockIdx.x")
        mod = lower(sch)
        rng = np.random.default_rng(2)
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random(k, dtype=np.float32)
        np.testing.assert_allclose(run(mod, {"A": a, "B": b}), a @ b, rtol=1e-4)

    def test_direct_store_produces_mram_element_traffic(self):
        # Without caching, accumulations hit MRAM element-wise — visible
        # as small-DMA traffic in the profile (the O0 story of Fig. 13).
        from repro.upmem.system import PerformanceModel

        m, k = 64, 64
        A, B, C = mtv_tensors(m, k)
        sch = Schedule(C)
        s = sch[C]
        (i,) = s.op.axis
        io, ii = s.split(i, nparts=4)
        s.bind(io, "blockIdx.x")
        prof = PerformanceModel().profile(lower(sch))
        assert prof.dpu.dma_calls > k  # per-element accumulator traffic


class TestMultiStageKernel:
    def test_red_dpu_combine_has_barrier(self):
        mod = default_engine().compile(
            red(2048),
            {"n_dpus": 4, "n_tasklets": 4, "cache": 16, "dpu_combine": 1,
             "host_threads": 1},
        ).module
        barriers = [s for s in iter_stmts(mod.kernel) if isinstance(s, Barrier)]
        assert len(barriers) == 1

    def test_red_internal_partials_not_transferred(self):
        mod = default_engine().compile(
            red(2048),
            {"n_dpus": 4, "n_tasklets": 4, "cache": 16, "dpu_combine": 1,
             "host_threads": 1},
        ).module
        # Tasklet partials (rf of rf) stay in MRAM; only per-DPU partials
        # move to the host.
        assert mod.mram_internal
        d2h_names = {t.global_buffer.name for t in mod.transfer("d2h")}
        assert all(".rf.rf" not in n for n in d2h_names)

    def test_red_prim_mode_ships_tasklet_partials(self):
        mod = default_engine().compile(
            red(2048),
            {"n_dpus": 4, "n_tasklets": 4, "cache": 16, "dpu_combine": 0,
             "host_threads": 1},
        ).module
        d2h = mod.transfer("d2h")
        assert d2h[0].tile_elems >= 4  # one value per tasklet

    def test_red_correct_both_modes(self):
        for combine in (0, 1):
            wl = red(3333)
            mod = default_engine().compile(
                wl,
                {"n_dpus": 8, "n_tasklets": 2, "cache": 8,
                 "dpu_combine": combine, "host_threads": 2},
            ).module
            inputs = wl.random_inputs(combine)
            out = run(mod, inputs)
            np.testing.assert_allclose(
                out, wl.reference_output(inputs), rtol=1e-3
            )


class TestBatchedNests:
    @pytest.mark.parametrize("shape", [(4, 6, 24), (5, 7, 30)])
    def test_ttv_correct(self, shape):
        wl = ttv(*shape)
        mod = default_engine().compile(
            wl,
            {"i_dpus": 2, "j_dpus": 2, "k_dpus": 1, "n_tasklets": 2,
             "cache": 8, "host_threads": 1},
        ).module
        inputs = wl.random_inputs(0)
        np.testing.assert_allclose(
            run(mod, inputs), wl.reference_output(inputs), rtol=1e-3
        )

    def test_mmtv_b_tile_depends_on_batch(self):
        wl = mmtv(8, 8, 32)
        mod = default_engine().compile(
            wl,
            {"i_dpus": 4, "j_dpus": 2, "k_dpus": 1, "n_tasklets": 2,
             "cache": 8, "host_threads": 1},
        ).module
        by_name = {t.global_buffer.name: t for t in mod.transfers}
        # B is indexed by the batch dim: its tile is (batch_tile, k), not
        # a broadcast of the whole matrix.
        assert by_name["B"].shape == (2, 32)

    def test_3d_grid(self):
        wl = mmtv(8, 8, 64)
        mod = default_engine().compile(
            wl,
            {"i_dpus": 2, "j_dpus": 2, "k_dpus": 2, "n_tasklets": 2,
             "cache": 8, "host_threads": 1},
        ).module
        assert len(mod.grid) == 3
        assert mod.n_dpus == 8
        inputs = wl.random_inputs(3)
        np.testing.assert_allclose(
            run(mod, inputs), wl.reference_output(inputs), rtol=1e-3
        )
