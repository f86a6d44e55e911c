"""Tuner integration: batched measurement over the caching compile engine."""

import pytest

import repro
from repro.autotune import Tuner
from repro.extensions import HbmPimConfig, HbmPimEstimator
from repro.obs import Tracer, use_tracer
from repro.target import HbmPimTarget, UpmemTarget
from repro.upmem import UpmemConfig
from repro.workloads import mtv

from ..conftest import make_mtv_schedule


@pytest.fixture(scope="module")
def tune_result():
    tuner = Tuner(
        mtv(256, 256),
        target=UpmemTarget(UpmemConfig().with_(n_ranks=2)),
        n_trials=24,
        batch_size=8,
        seed=0,
    )
    result = tuner.tune()
    return tuner, result


@pytest.mark.slow
class TestTunerCaching:
    def test_nonzero_hit_rate_on_repeated_candidates(self, tune_result):
        _, result = tune_result
        assert result.compile_cache_hits > 0
        assert result.compile_cache_misses > 0
        assert 0.0 < result.compile_cache_hit_rate < 1.0

    def test_stats_match_engine(self, tune_result):
        tuner, result = tune_result
        assert result.compile_cache_hits == tuner.engine.stats.hits
        assert result.compile_cache_misses == tuner.engine.stats.misses

    def test_search_still_converges(self, tune_result):
        _, result = tune_result
        assert result.best_latency > 0
        assert result.best_module is not None
        assert len(result.measured) == len(result.history)
        # History's running best is monotonically non-increasing.
        bests = [lat for _, lat in result.history]
        assert bests == sorted(bests, reverse=True)

    def test_batched_rounds(self, tune_result):
        _, result = tune_result
        # One model-refit round per measured batch, not per candidate.
        assert len(result.round_times) < len(result.measured)

    def test_private_engines_isolated(self):
        t1 = Tuner(mtv(128, 128), n_trials=4, batch_size=4, seed=1)
        t1.tune()
        t2 = Tuner(mtv(128, 128), n_trials=4, batch_size=4, seed=1)
        assert t2.engine.stats.lookups == 0

    def test_empty_shared_cache_is_used_not_replaced(self):
        from repro.autotune import CompileEngine
        from repro.pipeline import ArtifactCache

        shared = ArtifactCache()  # empty, hence falsy via __len__
        tuner = Tuner(
            mtv(128, 128), engine=CompileEngine(cache=shared),
            n_trials=4, batch_size=4,
        )
        assert tuner.engine.cache is shared
        tuner.tune()
        assert len(shared) > 0

    def test_shared_engine_reports_per_run_delta(self):
        from repro.autotune import CompileEngine

        cfg = UpmemConfig().with_(n_ranks=2)
        engine = CompileEngine()
        kwargs = dict(target=UpmemTarget(cfg), n_trials=8, batch_size=4, seed=2)
        r1 = Tuner(mtv(256, 256), engine=engine, **kwargs).tune()
        r2 = Tuner(mtv(256, 256), engine=engine, **kwargs).tune()
        # Per-run deltas sum to the engine totals, and the second
        # identical run is nearly all hits.
        total = r1.compile_cache_hits + r1.compile_cache_misses
        total += r2.compile_cache_hits + r2.compile_cache_misses
        assert total == engine.stats.lookups
        assert r2.compile_cache_hits > r2.compile_cache_misses


@pytest.mark.slow
class TestDeterminism:
    def test_same_seed_same_result(self):
        cfg = UpmemConfig().with_(n_ranks=2)
        kwargs = dict(target=UpmemTarget(cfg), n_trials=16, batch_size=8, seed=3)
        r1 = Tuner(mtv(256, 256), **kwargs).tune()
        r2 = Tuner(mtv(256, 256), **kwargs).tune()
        assert r1.best_params == r2.best_params
        assert r1.best_latency == r2.best_latency
        assert r1.history == r2.history


class TestHbmPimPipeline:
    """HBM-PIM compiles through ``build`` and estimates the lowered
    module; the pinned values are the parent commit's, to the last bit."""

    def test_registered(self):
        tracer = Tracer()
        with use_tracer(tracer):
            exe = repro.compile(mtv(256, 256), target="hbm-pim")
        assert exe.target.kind == "hbm-pim"
        pipelines = [s.name for s in tracer.spans if s.track == "pipeline"]
        assert "pipeline build" in pipelines
        assert not any("hbm" in name for name in pipelines)
        assert exe.latency == 2.0404166666666663e-06

    def test_estimate_schedule(self):
        exe = repro.compile(
            make_mtv_schedule(64, 64), target="hbm-pim", total_macs=64 * 64
        )
        est = exe.estimate
        assert est.supported and est.n_pus == 512
        assert est.latency_s.hex() == "0x1.0caf9f22d3cddp-19"
        assert est.commands_per_pu == 0.5 and est.rows_touched == 0.032226562500

    def test_estimate_lowered_matches_direct(self):
        sch = make_mtv_schedule(64, 64)
        module = repro.compile(sch, name="mtv").lowered
        via_target = repro.compile(
            make_mtv_schedule(64, 64), target="hbm-pim", total_macs=64 * 64
        ).estimate
        direct = HbmPimEstimator().estimate(module, total_macs=64 * 64)
        assert via_target.latency_s == direct.latency_s
        assert via_target.commands_per_pu == direct.commands_per_pu

    def test_estimate_lowered_skips_recompilation(self):
        wl = mtv(64, 64)
        module = repro.compile(wl).lowered
        tracer = Tracer()
        with use_tracer(tracer):
            latency = repro.get_target("hbm-pim").measure(module, wl)
        assert latency > 0 and len(tracer) == 0

    def test_custom_config_through_context(self):
        def estimate(channels):
            target = HbmPimTarget(HbmPimConfig(n_pseudo_channels=channels))
            return repro.compile(
                make_mtv_schedule(64, 64), target=target, total_macs=1 << 24
            ).estimate

        small, big = estimate(8), estimate(64)
        assert (small.n_pus, big.n_pus) == (64, 512)
        assert small.latency_s.hex() == "0x1.44a2229bd2f68p-15"
        assert big.latency_s.hex() == "0x1.ba12e800cc755p-18"
