"""Search-loop fixes, parallel measurement and persistent warm-start."""

import pytest

import repro
from repro.autotune import Tuner, TuningCache, autotune, tuned_params
from repro.pipeline import tuning_key
from repro.workloads import mtv


class TestMutationReflects:
    def test_boundary_values_always_mutate(self):
        # Regression: clamping at domain edges used to mutate boundary
        # candidates into themselves, silently wasting the elite slot.
        tuner = Tuner(mtv(256, 256), n_trials=8, seed=0)
        low = {k: v[0] for k, v in tuner.space.items()}
        high = {k: v[-1] for k, v in tuner.space.items()}
        for params in (low, high):
            for _ in range(50):
                assert tuner._mutate_params(params) != params

    def test_interior_values_step_one_choice(self):
        tuner = Tuner(mtv(1024, 1024), n_trials=8, seed=1)
        params = {
            k: v[len(v) // 2] for k, v in tuner.space.items()
        }
        for _ in range(50):
            mutated = tuner._mutate_params(params)
            changed = [k for k in params if mutated[k] != params[k]]
            assert len(changed) == 1
            key = changed[0]
            domain = tuner.space[key]
            assert abs(
                domain.index(mutated[key]) - domain.index(params[key])
            ) == 1

    def test_space_without_choices_mutates_to_itself(self):
        tuner = Tuner(mtv(64, 64), n_trials=4)
        tuner.space = {"n_tasklets": [16]}
        assert tuner._mutate_params({"n_tasklets": 16}) == {"n_tasklets": 16}


class TestTinyBudgetExploration:
    def test_tiny_budget_keeps_one_exploratory_trial(self):
        # Regression: n_trials < 3 floored _explore_until at 0, so
        # epsilon returned 0.05 from trial 0 and exploration never ran.
        for n in (1, 2):
            tuner = Tuner(mtv(64, 64), n_trials=n)
            assert tuner._explore_until == 1
            assert tuner.epsilon(0) == pytest.approx(0.5)
            assert tuner.epsilon(1) == pytest.approx(0.05)

    def test_larger_budgets_unchanged(self):
        tuner = Tuner(mtv(64, 64), n_trials=100)
        assert tuner._explore_until == 40


class TestSmallSearch:
    """2-4 trial searches: the paths the slow classes below take at
    full budget, in well under a second each."""

    def test_resume_replays_every_measurement(self, tmp_path):
        db = str(tmp_path / "tune.jsonl")
        cold = autotune(mtv(256, 256), n_trials=4, seed=0, db=db)
        warm = autotune(mtv(256, 256), n_trials=4, seed=0, db=db, resume=True)
        assert warm.history == cold.history
        assert (warm.measure_cache_hits, warm.measure_cache_misses) == (4, 0)
        assert warm.measure_cache_hit_rate == 1.0
        assert cold.measure_cache_hit_rate == 0.0
        assert 0.0 <= cold.compile_cache_hit_rate <= 1.0
        assert cold.best_gflops() == pytest.approx(
            cold.workload.flops / cold.best_latency / 1e9
        )

    def test_tuned_params_searches_once(self, tmp_path, monkeypatch):
        db = str(tmp_path / "tune.jsonl")
        searched = tuned_params(mtv(256, 256), db=db, n_trials=2)
        # The completed group answers from the store, without a search.
        monkeypatch.setattr(
            Tuner, "tune", lambda self: pytest.fail("searched again")
        )
        assert tuned_params(mtv(256, 256), db=db, n_trials=2) == searched

    def test_dry_pool_ends_the_search(self):
        tuner = Tuner(mtv(256, 256), n_trials=8, batch_size=4, seed=0)
        first_round = tuner._sample_pool
        rounds = []

        def one_round_then_dry(size):
            rounds.append(size)
            return first_round(size) if len(rounds) == 1 else []

        tuner._sample_pool = one_round_then_dry
        assert len(tuner.tune().measured) == 4
        assert len(rounds) == 2

    def test_a_batch_of_one_still_measures_every_seed(self):
        tuner = Tuner(mtv(256, 256), n_trials=3, batch_size=1, seed=0)
        seeds = tuner._seed_params()
        assert len(seeds) == 3  # the sketch defaults, plain and rfactor
        measured = tuner.tune().database.top_k(3)
        assert sorted(map(str, (r.params for r in measured))) == sorted(
            map(str, seeds)
        )

    def test_cold_start_explores_deterministically(self):
        # No seeded defaults: at epsilon(0) = 0.5 each batch slot may be
        # swapped for a random pool member, from the seeded rng.
        def run():
            return Tuner(
                mtv(256, 256), n_trials=4, seed=0, seed_defaults=False
            ).tune().history

        assert run() == run()


@pytest.mark.slow
class TestPersistentWarmStart:
    def test_records_appended_during_run(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        result = autotune(mtv(256, 256), n_trials=12, seed=0, db=str(db))
        assert result.db_key
        cache = TuningCache(db)
        stored = cache.load(result.db_key)
        assert len(stored) == len(result.database)
        assert stored.best().latency == result.best_latency

    def test_killed_and_resumed_run_matches_uninterrupted(self, tmp_path):
        kwargs = dict(n_trials=16, batch_size=8, seed=3)
        full = autotune(mtv(256, 256), **kwargs)

        # "Kill" a run halfway: the persistent store keeps its batches.
        db = tmp_path / "tune.jsonl"
        autotune(mtv(256, 256), n_trials=8, batch_size=8, seed=3,
                 db=str(db))
        resumed = autotune(mtv(256, 256), db=str(db), resume=True, **kwargs)

        assert resumed.best_latency == full.best_latency
        assert resumed.best_params == full.best_params
        assert resumed.history == full.history
        assert resumed.measure_cache_hits > 0
        assert resumed.measure_cache_misses < len(full.measured)

    def test_resume_of_complete_run_is_all_hits(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        kwargs = dict(n_trials=12, seed=1, db=str(db))
        cold = autotune(mtv(256, 256), **kwargs)
        warm = autotune(mtv(256, 256), resume=True, **kwargs)
        assert warm.history == cold.history
        assert warm.measure_cache_misses == 0
        assert warm.measure_cache_hits == len(cold.measured)
        assert warm.measure_cache_hit_rate == 1.0

    def test_resume_requires_db(self):
        with pytest.raises(ValueError):
            Tuner(mtv(64, 64), n_trials=4, resume=True)

    def test_exhausted_space_still_marks_requested_budget(self, tmp_path):
        # Regression: a search that ran out of candidates before
        # n_trials used to mark only the measured count, so tuned_params
        # re-ran the search forever for such workloads.
        db = tmp_path / "tune.jsonl"
        tuner = Tuner(mtv(256, 256), n_trials=64, batch_size=8, seed=0,
                      db=str(db))
        orig = tuner._sample_pool
        rounds = []

        def one_round_then_dry(size):
            if rounds:
                return []
            rounds.append(1)
            return orig(size)

        tuner._sample_pool = one_round_then_dry
        result = tuner.tune()
        assert len(result.measured) < 64
        assert TuningCache(db).completed_trials(tuner.db_key) == 64

    def test_opt_levels_form_separate_groups(self, tmp_path):
        # Regression: O0-measured latencies must never warm-start an O3
        # search — the same candidate measures differently per level.
        db = tmp_path / "tune.jsonl"
        o0 = autotune(mtv(256, 256), n_trials=8, seed=0, db=str(db),
                      opt_level="O0")
        o3 = autotune(mtv(256, 256), n_trials=8, seed=0, db=str(db),
                      opt_level="O3", resume=True)
        assert o0.db_key != o3.db_key
        assert o3.measure_cache_hits == 0

    def test_dbs_isolated_per_workload_and_config(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        r1 = autotune(mtv(256, 256), n_trials=8, seed=0, db=str(db))
        r2 = autotune(mtv(128, 128), n_trials=8, seed=0, db=str(db))
        assert r1.db_key != r2.db_key
        cache = TuningCache(db)
        assert set(cache.keys()) == {r1.db_key, r2.db_key}
        # A resumed run only warms from its own group.
        r3 = autotune(mtv(128, 128), n_trials=8, seed=0, db=str(db),
                      resume=True)
        assert r3.measure_cache_misses == 0


@pytest.mark.slow
class TestTunedCompile:
    def test_tuned_true_resolves_from_db_without_research(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        wl = mtv(256, 256)
        result = autotune(wl, n_trials=12, seed=0, db=str(db))

        params = tuned_params(wl, db=str(db), n_trials=12, seed=0)
        exe = repro.compile(wl, target="upmem", params=params)
        assert exe.params == result.best_params
        # The store was not re-tuned: still exactly one group with the
        # original record count.
        cache = TuningCache(db)
        assert len(cache.load(result.db_key)) == len(result.database)

    def test_tuned_true_cold_runs_search_and_persists(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        wl = mtv(256, 256)
        params = tuned_params(wl, db=str(db), n_trials=8, seed=0)
        exe = repro.compile(wl, target="upmem", params=params)
        key = tuning_key(wl, repro.get_target("upmem").config, "upmem")
        best = TuningCache(db).best(key)
        assert best is not None
        assert exe.params == best.params

    def test_tuned_params_completes_interrupted_group(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        wl = mtv(256, 256)
        autotune(wl, n_trials=8, batch_size=8, seed=3, db=str(db))
        full = autotune(wl, n_trials=16, batch_size=8, seed=3)
        params = tuned_params(wl, db=str(db), n_trials=16, seed=3,
                              batch_size=8)
        assert params == full.best_params

    def test_record_count_alone_does_not_mark_group_tuned(self, tmp_path):
        # Regression: the union of interrupted runs can exceed n_trials
        # records without any run having completed; tuned_params must
        # run the search, not trust the head count.
        src = tmp_path / "src.jsonl"
        db = tmp_path / "tune.jsonl"
        wl = mtv(256, 256)
        result = autotune(wl, n_trials=12, batch_size=4, seed=0,
                          db=str(src))
        # Copy only the record lines (no run_complete marker): an
        # interrupted-runs-only group with 12 >= 8 records.
        cache = TuningCache(db)
        cache.append(result.db_key, result.database.records())
        assert cache.completed_trials(result.db_key) == 0

        params = tuned_params(wl, db=str(db), n_trials=8, batch_size=4,
                              seed=0)
        # The search ran (and marked completion), rather than returning
        # the stored best on record count alone.
        assert cache.completed_trials(result.db_key) >= 8
        full = autotune(wl, n_trials=8, batch_size=4, seed=0)
        assert params == full.best_params

    def test_tuned_params_accepts_explicit_resume(self, tmp_path):
        db = tmp_path / "tune.jsonl"
        wl = mtv(256, 256)
        # resume=False with a db: persist but search fresh (no TypeError
        # from the forwarded kwarg, no warm fast path).
        params = tuned_params(wl, db=str(db), n_trials=8, seed=0,
                              resume=False)
        full = autotune(wl, n_trials=8, seed=0)
        assert params == full.best_params
        key = tuning_key(wl, repro.get_target("upmem").config, "upmem")
        assert TuningCache(db).completed_trials(key) == 8

    def test_explicit_params_win_over_tuned(self):
        """Explicit params are the one route in: the front door has no
        tuning switch to override them."""
        wl = mtv(256, 256)
        from repro.target.targets import default_params

        params = default_params(wl)
        exe = repro.compile(wl, target="upmem", params=params)
        assert exe.params == params
        with pytest.raises(TypeError, match="tuned"):
            repro.compile(wl, target="upmem", tuned=True, params=params)
