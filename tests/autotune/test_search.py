"""Cost model, database and the balanced evolutionary search."""

import numpy as np
import pytest

from repro.autotune import (
    CostModel,
    Database,
    Tuner,
    TuningRecord,
    autotune,
    extract_features,
    FEATURE_NAMES,
)
from repro.autotune.compile import default_engine
from repro.workloads import mtv, red, va


class TestDatabase:
    def _record(self, lat, subspace="plain", **params):
        return TuningRecord(params=params, subspace=subspace, latency=lat)

    def test_add_and_best(self):
        db = Database()
        db.add(self._record(2.0, x=1))
        db.add(self._record(1.0, x=2))
        assert db.best().latency == 1.0
        assert len(db) == 2

    def test_top_k_sorted(self):
        db = Database()
        for i, lat in enumerate([5.0, 1.0, 3.0]):
            db.add(self._record(lat, x=i))
        assert [r.latency for r in db.top_k(2)] == [1.0, 3.0]

    def test_top_k_by_subspace(self):
        db = Database()
        db.add(self._record(1.0, "plain", x=1))
        db.add(self._record(2.0, "rfactor", x=2))
        assert db.top_k(5, "rfactor")[0].latency == 2.0

    def test_contains(self):
        db = Database()
        db.add(self._record(1.0, x=1, y=2))
        assert db.contains({"y": 2, "x": 1})
        assert not db.contains({"x": 9})


class TestCostModel:
    def test_untrained_predicts_zeros(self):
        model = CostModel()
        assert not model.trained
        assert np.all(model.predict(np.ones((3, 4))) == 0)

    def test_learns_monotone_relationship(self):
        rng = np.random.default_rng(0)
        X = rng.random((64, 4))
        y = np.exp(2.0 * X[:, 0] + 0.1 * X[:, 1])
        model = CostModel(l2=1e-3)
        model.fit(X, y)
        assert model.trained
        pred = model.predict(X)
        # Rank correlation: ordering mostly preserved.
        assert model.rank_error(X, y) < 0.2

    def test_small_sample_ignored(self):
        model = CostModel()
        model.fit(np.ones((2, 3)), np.ones(2))
        assert not model.trained


class TestFeatures:
    def test_feature_vector_shape(self):
        wl = mtv(64, 64)
        module = default_engine().compile(
            wl,
            {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
             "host_threads": 1},
        ).module
        feats = extract_features(module)
        assert feats.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(feats))

    def test_features_distinguish_configs(self):
        wl = mtv(256, 256)
        engine = default_engine()
        m1 = engine.compile(wl, {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2,
                                 "cache": 16, "host_threads": 1}).module
        m2 = engine.compile(wl, {"m_dpus": 16, "k_dpus": 4, "n_tasklets": 8,
                                 "cache": 64, "host_threads": 4}).module
        assert not np.allclose(extract_features(m1), extract_features(m2))


@pytest.mark.slow
class TestTuner:
    def test_finds_valid_best(self):
        result = autotune(mtv(256, 256), n_trials=24, seed=0)
        assert result.best_latency > 0
        assert result.best_module is not None
        assert len(result.database) >= 24

    def test_history_monotone_nonincreasing(self):
        result = autotune(mtv(256, 256), n_trials=24, seed=1)
        lats = [lat for _t, lat in result.history]
        assert all(b <= a for a, b in zip(lats, lats[1:]))

    def test_deterministic_given_seed(self):
        r1 = autotune(va(100000), n_trials=16, seed=7)
        r2 = autotune(va(100000), n_trials=16, seed=7)
        assert r1.best_params == r2.best_params
        assert r1.best_latency == pytest.approx(r2.best_latency)

    def test_epsilon_schedule(self):
        tuner = Tuner(mtv(64, 64), n_trials=100)
        assert tuner.epsilon(0) == pytest.approx(0.5)
        assert tuner.epsilon(20) < 0.5
        assert tuner.epsilon(40) == pytest.approx(0.05)
        assert tuner.epsilon(99) == pytest.approx(0.05)

    def test_fixed_epsilon_without_adaptive(self):
        tuner = Tuner(mtv(64, 64), n_trials=100, adaptive_epsilon=False)
        assert tuner.epsilon(0) == tuner.epsilon(50) == pytest.approx(0.05)

    def test_balanced_batch_covers_both_subspaces(self):
        tuner = Tuner(mtv(1024, 1024), n_trials=64, seed=3, balanced=True)
        pool = tuner._sample_pool(32)
        batch = tuner._select_batch(pool, trial=0)
        tags = {c.subspace for c in batch}
        pool_tags = {c.subspace for c in pool}
        if pool_tags == {"plain", "rfactor"}:
            assert tags == {"plain", "rfactor"}

    def test_tuner_improves_over_first_sample(self):
        result = autotune(mtv(1024, 1024), n_trials=40, seed=5)
        first = result.history[0][1]
        assert result.best_latency <= first

    def test_measured_and_round_times_recorded(self):
        result = autotune(red(100000), n_trials=16, seed=0)
        assert len(result.measured) >= 16
        assert result.round_times

    def test_gflops_curve(self):
        result = autotune(mtv(256, 256), n_trials=16, seed=0)
        curve = result.gflops_curve()
        assert curve[-1][1] >= curve[0][1]
        assert result.best_gflops() == pytest.approx(curve[-1][1])
