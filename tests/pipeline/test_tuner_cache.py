"""Tuner integration: batched measurement over the caching compile engine."""

import pytest

from repro.autotune import Tuner
from repro.target import UpmemTarget
from repro.upmem import UpmemConfig
from repro.workloads import mtv


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
