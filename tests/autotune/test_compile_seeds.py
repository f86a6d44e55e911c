"""Engine compile outcomes and tuner seeding behaviour."""

import pytest

from repro.autotune import Tuner
from repro.autotune.compile import default_engine
from repro.target import UpmemTarget
from repro.upmem.config import UpmemConfig
from repro.workloads import mha_mmtv, GPTJ_30B, mmtv, mtv, red, va


class TestCompileParams:
    def test_marks_const_inputs(self):
        wl = mtv(64, 64)
        mod = default_engine().compile(
            wl,
            {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
             "host_threads": 1},
        ).module
        assert mod.const_inputs == frozenset({"A"})

    def test_elementwise_has_no_const_inputs(self):
        wl = va(1024)
        mod = default_engine().compile(
            wl, {"n_dpus": 4, "n_tasklets": 2, "cache": 16}
        ).module
        assert mod.const_inputs == frozenset()

    def test_invalid_params_return_none(self):
        wl = mtv(2048, 2048)
        art = default_engine().compile(
            wl,
            {"m_dpus": 2, "k_dpus": 1, "n_tasklets": 24, "cache": 512,
             "host_threads": 1},
        )
        assert art.ok and not art.verified and "WRAM" in art.verify_reason

    def test_bad_sketch_params_return_none(self):
        wl = mtv(64, 64)
        art = default_engine().compile(
            wl,
            {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 0,
             "host_threads": 1},
        )
        assert not art.ok and art.verified is False and art.error

    def test_nonpositive_dpus_clamped_to_one(self):
        # Oversubscription clamping also floors at one part.
        wl = mtv(64, 64)
        art = default_engine().compile(
            wl,
            {"m_dpus": 0, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
             "host_threads": 1},
        )
        assert art.verified and art.module.n_dpus == 1


class TestSeeding:
    def test_seeds_within_dpu_budget(self):
        for wl in (mtv(8192, 8192), mmtv(256, 512, 256), red(10**7), va(10**7)):
            tuner = Tuner(wl, n_trials=8)
            for params in tuner._seed_params():
                grid = 1
                for key in ("n_dpus", "m_dpus", "i_dpus", "j_dpus", "k_dpus"):
                    grid *= params.get(key, 1)
                assert grid <= tuner.config.n_dpus

    def test_seed_covers_both_subspaces_for_reductions(self):
        tuner = Tuner(mtv(4096, 4096), n_trials=8)
        seeds = tuner._seed_params()
        k_values = {p.get("k_dpus", 1) for p in seeds}
        assert 1 in k_values
        assert any(k > 1 for k in k_values)

    def test_nonpow2_spatial_dim_gets_exact_divisor_seed(self):
        # 448 = 28 heads x 16 batch: PrIM's exact divisor must be reachable.
        wl = mha_mmtv(GPTJ_30B, 16, 512)
        tuner = Tuner(wl, n_trials=8)
        assert any(p["i_dpus"] == 448 for p in tuner._seed_params())

    def test_seeds_always_measured_first(self):
        tuner = Tuner(mtv(1024, 1024), n_trials=8, seed=0)
        pool = tuner._sample_pool(16)
        seeds = [c for c in pool if c.is_seed]
        assert seeds
        batch = tuner._select_batch(pool, trial=0)
        for seed in seeds:
            assert seed in batch

    @pytest.mark.slow
    def test_tuner_never_loses_to_its_seed(self):
        wl = mmtv(128, 320, 256)
        tuner = Tuner(wl, n_trials=16, seed=0)
        seed_latencies = []
        for params in tuner._seed_params():
            cand = tuner._build(params)
            if cand is not None:
                seed_latencies.append(tuner._measure(cand))
        result = Tuner(wl, n_trials=16, seed=0).tune()
        assert result.best_latency <= min(seed_latencies) * 1.0001

    def test_small_system_respected(self):
        cfg = UpmemConfig().with_(n_ranks=1)  # 64 DPUs
        tuner = Tuner(mtv(4096, 4096), target=UpmemTarget(cfg), n_trials=8)
        for params in tuner._seed_params():
            assert params["m_dpus"] * params.get("k_dpus", 1) <= 64
