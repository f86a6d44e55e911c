"""PrIM / SimplePIM / CPU baselines: structure and documented behaviours."""

import pytest

import repro
from repro.baselines import CpuModel, GpuModel, prim_params
from repro.target import PrimTarget, TargetError
from repro.workloads import make_workload, mtv, ttv, va


def prim(wl, size=None, variant="default"):
    return repro.compile(wl, target=PrimTarget(variant), size=size)


def cpu_latency(wl):
    return repro.compile(wl, target="cpu").latency


class TestPrimParams:
    def test_table3_defaults(self):
        wl = make_workload("mtv", "64MB")
        params = prim_params(wl, size="64MB")
        assert params["m_dpus"] == 256
        assert params["k_dpus"] == 1  # PrIM never tiles the reduction
        assert params["n_tasklets"] == 16
        assert params["cache"] == 256  # 1024 bytes

    def test_red_ships_tasklet_partials(self):
        params = prim_params(make_workload("red", "64MB"), size="64MB")
        assert params["dpu_combine"] == 0

    def test_va_uses_full_system(self):
        params = prim_params(make_workload("va", "64MB"), size="64MB")
        assert params["n_dpus"] == 2048

    def test_fallback_without_size(self):
        params = prim_params(mtv(4096, 4096))
        assert 64 <= params["m_dpus"] <= 512

    def test_unknown_workload_rejected(self):
        bogus = mtv(16, 16)
        bogus.name = "conv3d"
        with pytest.raises(KeyError, match="conv3d"):
            prim_params(bogus)
        assert not PrimTarget().supports(bogus)

    def test_batched_splits_grid(self):
        wl = ttv(128, 256, 512)
        params = prim_params(wl, n_dpus=1024)
        assert params["i_dpus"] * params["j_dpus"] <= 1024
        assert params["k_dpus"] == 1


class TestPrimProfiles:
    def test_prim_module_builds(self):
        wl = mtv(1024, 1024)
        assert prim(wl, "4MB").lowered.n_dpus == 256

    def test_prim_e_not_worse_than_prim(self):
        wl = make_workload("mtv", "64MB")
        assert prim(wl, variant="e").latency <= prim(wl, "64MB").latency * 1.001

    def test_prim_search_not_worse_than_prim_e(self):
        wl = make_workload("mtv", "4MB")
        searched = prim(wl, variant="search")
        assert searched.latency <= prim(wl, variant="e").latency * 1.001
        assert searched.params["k_dpus"] == 1


class TestSimplePim:
    def test_va_d2h_penalty(self):
        wl = make_workload("va", "64MB")
        sp = repro.compile(wl, target="simplepim").profile()
        assert sp.latency.d2h > prim(wl, "64MB").profile().latency.d2h * 2

    def test_red_supported(self):
        wl = make_workload("red", "4MB")
        assert repro.compile(wl, target="simplepim").latency > 0

    def test_unsupported_workload_rejected(self):
        with pytest.raises(TargetError, match="va/geva/red"):
            repro.compile(mtv(64, 64), target="simplepim")


class TestCpuGpu:
    def test_memory_bound_scaling(self):
        small = cpu_latency(make_workload("va", "4MB"))
        big = cpu_latency(make_workload("va", "256MB"))
        assert big > small * 30  # linear in bytes minus fixed overhead

    def test_boundary_check_penalty_small(self):
        cpu = CpuModel()
        wl = mtv(512, 512)
        ratio = cpu.latency(wl, True) / cpu.latency(wl, False)
        assert 1.0 < ratio < 1.05

    def test_gpu_faster_than_cpu(self):
        wl = make_workload("mtv", "64MB")
        assert GpuModel().latency(wl) < CpuModel().latency(wl)

    def test_gpu_boundary_check_penalty_below_cpus(self):
        """Fig. 4 reads both rooflines: latency hiding leaves a GPU a
        smaller boundary-check penalty than a CPU, on every shape."""
        cpu, gpu = CpuModel(), GpuModel()
        for m, k in ((542, 542), (990, 713), (990, 990)):
            wl = mtv(m, k)
            cpu_ratio = cpu.latency(wl, True) / cpu.latency(wl, False)
            gpu_ratio = gpu.latency(wl, True) / gpu.latency(wl, False)
            assert 1.0 < gpu_ratio < cpu_ratio

    def test_compute_bound_floor(self):
        # A tiny workload is dominated by fixed overhead.
        wl = va(16)
        assert cpu_latency(wl) >= CpuModel().overhead_s
