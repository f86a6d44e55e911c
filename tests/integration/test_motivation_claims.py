"""The paper's §3 motivating observations hold on the simulated system."""

import pytest

import repro
from repro.workloads import gemv, mtv


class TestObservation2:
    """"Intra-DPU and inter-DPU optimizations have a vast search space of
    closely correlated parameters with significant performance impact."""

    def test_tile_scheme_changes_kernel_and_transfer_balance(self):
        wl = gemv(2048, 2048)
        one_d = repro.compile(
            wl,
            params={"m_dpus": 512, "k_dpus": 1, "n_tasklets": 16,
                    "cache": 64, "host_threads": 16},
        ).profile()
        two_d = repro.compile(
            wl,
            params={"m_dpus": 64, "k_dpus": 8, "n_tasklets": 16,
                    "cache": 64, "host_threads": 16},
        ).profile()
        # 2-D tiling trades host reduction time for less H2D (broadcast
        # shrinks) — the correlation the paper demonstrates in Fig. 3(b).
        assert two_d.latency.h2d < one_d.latency.h2d
        assert two_d.latency.host >= one_d.latency.host

    def test_optimal_dpus_depends_on_tensor_size(self):
        small = gemv(512, 512)
        big = gemv(8192, 8192)

        def best_dpus(wl, counts):
            best, best_t = None, None
            for n in counts:
                prof = repro.compile(
                    wl,
                    params={"m_dpus": n, "k_dpus": 1, "n_tasklets": 16,
                            "cache": 32, "host_threads": 1},
                ).profile()
                if best_t is None or prof.latency.total < best_t:
                    best, best_t = n, prof.latency.total
            return best

        small_best = best_dpus(small, (32, 128, 512))
        big_best = best_dpus(big, (32, 512, 2048))
        # Fig. 3(c): small tensors peak below the full system.
        assert big_best > small_best

    def test_interdependence_of_tiles_and_tasklets(self):
        # The best caching tile depends on how many tasklets share WRAM:
        # at 24 tasklets a 512-element tile overflows, at 2 it is legal.
        from repro.autotune.compile import default_engine

        wl = mtv(4096, 4096)
        big_tile_many_threads = default_engine().compile(
            wl,
            {"m_dpus": 64, "k_dpus": 1, "n_tasklets": 24, "cache": 512,
             "host_threads": 1},
        )
        big_tile_few_threads = default_engine().compile(
            wl,
            {"m_dpus": 64, "k_dpus": 1, "n_tasklets": 2, "cache": 512,
             "host_threads": 1},
        )
        assert not big_tile_many_threads.verified
        assert big_tile_few_threads.verified


class TestObservation3:
    """"UPMEM compute units can suffer from underutilization due to
    unoptimized branches" — checks cost ~20% on DPUs."""

    @pytest.mark.parametrize("m,k", [(542, 542), (713, 990)])
    def test_boundary_checks_cost_double_digit_percent(self, m, k):
        wl = gemv(m, k)
        params = {"m_dpus": 64, "k_dpus": 1, "n_tasklets": 16, "cache": 64,
                  "host_threads": 1}
        checked = repro.compile(wl, params=params, opt_level="O1").profile()
        clean = repro.compile(wl, params=params, opt_level="O3").profile()
        ratio = checked.latency.kernel / clean.latency.kernel
        assert 1.05 < ratio < 2.0

    def test_branches_dominate_small_kernels_at_o0(self):
        wl = gemv(245, 245)
        params = {"m_dpus": 1, "k_dpus": 1, "n_tasklets": 8, "cache": 16,
                  "host_threads": 1}
        prof = repro.compile(wl, params=params, opt_level="O0").profile()
        counts = prof.kernel_counts
        assert counts.branches > 0.05 * counts.slots
