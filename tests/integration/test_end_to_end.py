"""End-to-end: paper-level claims hold on the simulated system."""

import numpy as np
import pytest

import repro
from repro import te
from repro.autotune import autotune
from repro.schedule import Schedule
from repro.workloads import make_workload, mtv, red

from ..conftest import make_mtv_schedule


class TestBuildApi:
    def test_build_run_profile(self):
        sch = make_mtv_schedule(64, 32)
        mod = repro.compile(sch, name="mtv")
        rng = np.random.default_rng(0)
        a = rng.random((64, 32), dtype=np.float32)
        b = rng.random(32, dtype=np.float32)
        out, = mod.run(A=a, B=b)
        np.testing.assert_allclose(out, a @ b, rtol=1e-4)
        assert mod.latency > 0
        assert "dma_copy" in mod.script() or "for" in mod.script()

    def test_profile_cached(self):
        mod = repro.compile(make_mtv_schedule(64, 32))
        assert mod.profile() is mod.profile()

    def test_build_applies_optimization_level(self):
        o0 = repro.compile(make_mtv_schedule(37, 50), opt_level="O0")
        o3 = repro.compile(make_mtv_schedule(37, 50), opt_level="O3")
        assert o3.profile().latency.kernel < o0.profile().latency.kernel


@pytest.mark.slow
class TestPaperClaims:
    """Direction/shape of the headline results (small-scale settings)."""

    def test_atim_beats_prim_on_mtv(self):
        wl = make_workload("mtv", "64MB")
        prim = repro.compile(wl, target="prim", size="64MB").latency
        tuned = autotune(wl, n_trials=32, seed=0).best_latency
        assert tuned < prim  # paper: up to 6.18x

    def test_atim_uses_2d_tiling_on_large_mtv(self):
        wl = make_workload("mtv", "256MB")
        result = autotune(wl, n_trials=32, seed=0)
        assert result.best_params["k_dpus"] > 1  # hierarchical reduction

    def test_atim_beats_simplepim_on_red(self):
        wl = make_workload("red", "64MB")
        sp = repro.compile(wl, target="simplepim").latency
        tuned = autotune(wl, n_trials=32, seed=0).best_latency
        assert tuned < sp

    def test_pim_beats_cpu_on_large_red(self):
        wl = make_workload("red", "256MB")
        tuned = autotune(wl, n_trials=24, seed=0).best_latency
        cpu = repro.compile(wl, target="cpu").latency
        assert cpu / tuned > 5  # paper: up to 23.3x

    def test_cpu_competitive_on_small_mtv(self):
        wl = make_workload("mtv", "4MB")
        tuned = autotune(wl, n_trials=24, seed=0).best_latency
        # At 4 MB the paper reports PIM <= CPU for matvec workloads.
        assert repro.compile(wl, target="cpu").latency < tuned * 3

    def test_red_prim_ships_more_d2h(self):
        wl = make_workload("red", "64MB")
        prim = repro.compile(wl, target="prim", size="64MB").profile()
        tuned = autotune(wl, n_trials=24, seed=0)
        from repro.upmem.system import PerformanceModel

        atim_prof = PerformanceModel().profile(tuned.best_module)
        assert prim.latency.d2h >= atim_prof.latency.d2h


class TestCustomOperators:
    """The public API supports operators beyond the built-in seven."""

    def test_axpy_like_fused_op(self):
        n = 96
        A = te.placeholder((n,), "float32", "A")
        B = te.placeholder((n,), "float32", "B")
        C = te.compute((n,), lambda i: A[i] * 2.0 + B[i] * B[i], "C")
        sch = Schedule(C)
        s = sch[C]
        (i,) = s.op.axis
        i_dpu, rest = s.split(i, nparts=4)
        i_thr, r2 = s.split(rest, nparts=2)
        i_blk, i_in = s.split(r2, factor=8)
        s.reorder(i_dpu, i_thr, i_blk, i_in)
        s.bind(i_dpu, "blockIdx.x")
        s.bind(i_thr, "threadIdx.x")
        sch.cache_read(C, A, "wram").compute_at(s, i_blk)
        sch.cache_read(C, B, "wram").compute_at(s, i_blk)
        sch.cache_write(C, "wram").reverse_compute_at(s, i_blk)
        mod = repro.compile(sch)
        rng = np.random.default_rng(4)
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        out, = mod.run(A=a, B=b)
        np.testing.assert_allclose(out, 2 * a + b * b, rtol=1e-4)

    def test_max_reduction_op(self):
        m, k = 24, 40
        A = te.placeholder((m, k), "float32", "A")
        kk = te.reduce_axis(k, "k")
        C = te.compute(
            (m,), lambda i: te.max_reduce(A[i, kk], axis=kk), "C"
        )
        sch = Schedule(C)
        s = sch[C]
        (i,) = s.op.axis
        i_dpu, i_in = s.split(i, nparts=4)
        i_thr, i_tile = s.split(i_in, nparts=2)
        kb, ke = s.split(s.op.reduce_axis[0], factor=8)
        s.reorder(i_dpu, i_thr, i_tile, kb, ke)
        s.bind(i_dpu, "blockIdx.x")
        s.bind(i_thr, "threadIdx.x")
        sch.cache_read(C, A, "wram").compute_at(s, kb)
        sch.cache_write(C, "wram").reverse_compute_at(s, i_thr)
        mod = repro.compile(sch)
        rng = np.random.default_rng(5)
        a = rng.random((m, k), dtype=np.float32)
        out, = mod.run(A=a)
        np.testing.assert_allclose(out, a.max(axis=1), rtol=1e-5)

    def test_2d_elementwise(self):
        h, w = 18, 26
        A = te.placeholder((h, w), "float32", "A")
        C = te.compute((h, w), lambda i, j: A[i, j] * A[i, j], "C")
        sch = Schedule(C)
        s = sch[C]
        i, j = s.op.axis
        i_dpu, i_in = s.split(i, nparts=3)
        j_dpu, j_rest = s.split(j, nparts=2)
        j_thr, j_in = s.split(j_rest, nparts=2)
        s.reorder(i_dpu, j_dpu, i_in, j_thr, j_in)
        s.bind(i_dpu, "blockIdx.x")
        s.bind(j_dpu, "blockIdx.y")
        s.bind(j_thr, "threadIdx.x")
        sch.cache_read(C, A, "wram").compute_at(s, j_thr)
        sch.cache_write(C, "wram").reverse_compute_at(s, j_thr)
        mod = repro.compile(sch)
        rng = np.random.default_rng(6)
        a = rng.random((h, w), dtype=np.float32)
        out, = mod.run(A=a)
        np.testing.assert_allclose(out, a * a, rtol=1e-5)
