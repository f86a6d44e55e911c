"""ExecutablePool: lazy compile, LRU residency, tuned params."""

import numpy as np
import pytest

from repro.autotune import autotune, tuned_params
from repro.serve import ExecutablePool
from repro.workloads import mtv, va

MTV_PARAMS = {
    "m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
    "host_threads": 1, "unroll": 0,
}
VA_PARAMS = {"n_dpus": 2, "n_tasklets": 2, "cache": 64, "unroll": 0}


class TestKeying:
    def test_equal_workloads_share_key(self):
        # Structural identity, not object identity.
        assert ExecutablePool.key_for(
            mtv(32, 64), "upmem", MTV_PARAMS
        ) == ExecutablePool.key_for(mtv(32, 64), "upmem", MTV_PARAMS)

    def test_params_split_keys(self):
        wl = mtv(32, 64)
        other = dict(MTV_PARAMS, cache=32)
        assert ExecutablePool.key_for(wl, "upmem", MTV_PARAMS) != (
            ExecutablePool.key_for(wl, "upmem", other)
        )

    def test_target_splits_keys(self):
        wl = mtv(32, 64)
        assert ExecutablePool.key_for(wl, "upmem") != (
            ExecutablePool.key_for(wl, "cpu")
        )

    def test_target_config_splits_keys(self):
        """Differently-configured instances of one kind must not alias:
        they compile, batch and time against different machines."""
        from repro.target import UpmemTarget
        from repro.upmem import UpmemConfig

        wl = mtv(32, 64)
        small = UpmemTarget(config=UpmemConfig().with_(n_ranks=2))
        assert ExecutablePool.key_for(wl, UpmemTarget()) != (
            ExecutablePool.key_for(wl, small)
        )

    def test_kind_string_matches_default_instance(self):
        from repro.target import UpmemTarget

        wl = mtv(32, 64)
        assert ExecutablePool.key_for(wl, "upmem") == (
            ExecutablePool.key_for(wl, UpmemTarget())
        )

    def test_workload_params_mutation_invalidates_memo(self):
        """The per-instance signature memo revalidates on params
        changes — mutate-and-resubmit must not reuse the old key."""
        wl = mtv(32, 64)
        before = ExecutablePool.key_for(wl, "upmem")
        assert ExecutablePool.key_for(wl, "upmem") == before  # memo hit
        wl.params.update({"model": "tagged-later"})
        assert ExecutablePool.key_for(wl, "upmem") != before


class TestResidency:
    def test_hit_miss_accounting(self):
        pool = ExecutablePool(capacity=4)
        wl = va(1024)
        exe1, loaded1 = pool.get(wl, "upmem", VA_PARAMS)
        exe2, loaded2 = pool.get(va(1024), "upmem", VA_PARAMS)
        assert loaded1 and not loaded2
        assert exe1 is exe2
        assert pool.stats()["hits"] == 1
        assert pool.stats()["misses"] == 1
        assert pool.hit_rate == 0.5

    def test_lru_eviction_prefers_recent(self):
        pool = ExecutablePool(capacity=2)
        a, b, c = mtv(32, 64), va(1024), mtv(16, 32)
        pool.get(a, "upmem", MTV_PARAMS)
        pool.get(b, "upmem", VA_PARAMS)
        pool.get(a, "upmem", MTV_PARAMS)  # refresh A
        pool.get(c, "upmem", MTV_PARAMS)  # evicts B (least recent)
        assert pool.evictions == 1
        _, reload_a = pool.get(a, "upmem", MTV_PARAMS)
        assert not reload_a  # A stayed resident
        _, reload_b = pool.get(b, "upmem", VA_PARAMS)
        assert reload_b  # B was the victim

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ExecutablePool(capacity=0)

    def test_executables_run(self):
        pool = ExecutablePool()
        wl = va(1024)
        exe, _ = pool.get(wl, "upmem", VA_PARAMS)
        ins = wl.random_inputs(seed=0)
        (out,) = exe.run(ins)
        np.testing.assert_allclose(out, wl.reference_output(ins), rtol=1e-3)


class TestPinning:
    def test_pinned_entries_survive_lru_pressure(self):
        pool = ExecutablePool(capacity=2)
        a, b, c = mtv(32, 64), va(1024), mtv(16, 32)
        key_a = ExecutablePool.key_for(a, "upmem", MTV_PARAMS)
        pool.get(a, "upmem", MTV_PARAMS)
        pool.pin(key_a)
        pool.get(b, "upmem", VA_PARAMS)
        pool.get(c, "upmem", MTV_PARAMS)  # would evict A as LRU victim
        assert pool.evictions == 1  # B went instead
        _, reload_a = pool.get(a, "upmem", MTV_PARAMS)
        assert not reload_a
        _, reload_b = pool.get(b, "upmem", VA_PARAMS)
        assert reload_b

    def test_all_pinned_runs_over_capacity(self):
        pool = ExecutablePool(capacity=1)
        specs = [
            (mtv(32, 64), MTV_PARAMS),
            (va(1024), VA_PARAMS),
            (mtv(16, 32), MTV_PARAMS),
        ]
        for wl, params in specs:
            pool.pin(ExecutablePool.key_for(wl, "upmem", params))
            pool.get(wl, "upmem", params)
        assert len(pool) == 3  # over capacity, nothing evictable
        assert pool.evictions == 0
        assert pool.stats()["pinned"] == 3

    def test_unpin_rejoins_lru_order(self):
        pool = ExecutablePool(capacity=2)
        a, b = mtv(32, 64), va(1024)
        key_a = ExecutablePool.key_for(a, "upmem", MTV_PARAMS)
        pool.pin(key_a)
        pool.get(a, "upmem", MTV_PARAMS)
        pool.get(b, "upmem", VA_PARAMS)
        pool.unpin(key_a)
        # A is now the least-recently-used evictable entry again.
        pool.get(va(2048), "upmem", VA_PARAMS)
        assert pool.evictions == 1
        _, reload_a = pool.get(a, "upmem", MTV_PARAMS)
        assert reload_a  # A was the victim
        assert pool.pinned_keys() == set()

    def test_unpin_shrinks_an_over_capacity_pool(self):
        """Pins may hold the pool over capacity; releasing one lets the
        pool evict back to its cap at once, least recent first — not at
        the next miss."""
        pool = ExecutablePool(capacity=1)
        specs = [(mtv(32, 64), MTV_PARAMS), (va(1024), VA_PARAMS)]
        keys = [ExecutablePool.key_for(wl, "cpu", p) for wl, p in specs]
        for key, (wl, params) in zip(keys, specs):
            pool.pin(key)
            pool.get(wl, "cpu", params)
        assert len(pool) == 2
        pool.unpin(keys[1])
        assert len(pool) == 1 and pool.evictions == 1
        _, reloaded = pool.get(specs[0][0], "cpu", MTV_PARAMS)
        assert not reloaded  # the pinned one stayed

    def test_pin_before_compile_and_unknown_unpin(self):
        pool = ExecutablePool(capacity=1)
        wl = va(1024)
        key = ExecutablePool.key_for(wl, "upmem", VA_PARAMS)
        pool.pin(key)  # not yet resident: allowed
        pool.get(wl, "upmem", VA_PARAMS)
        assert pool.pinned_keys() == {key}
        pool.unpin(("not", "a", "key"))  # no-op
        assert pool.stats()["pinned"] == 1


class TestStats:
    def test_per_key_hit_counts(self):
        pool = ExecutablePool(capacity=4)
        a, b = mtv(32, 64), va(1024)
        pool.get(a, "upmem", MTV_PARAMS)  # miss
        pool.get(a, "upmem", MTV_PARAMS)  # hit
        pool.get(a, "upmem", MTV_PARAMS)  # hit
        pool.get(b, "upmem", VA_PARAMS)   # miss
        pool.get(b, "upmem", VA_PARAMS)   # hit
        stats = pool.stats()
        assert stats["hits"] == 3 and stats["misses"] == 2
        per_key = stats["per_key_hits"]
        label_a = pool.key_label(
            ExecutablePool.key_for(a, "upmem", MTV_PARAMS)
        )
        label_b = pool.key_label(
            ExecutablePool.key_for(b, "upmem", VA_PARAMS)
        )
        assert per_key == {label_a: 2, label_b: 1}
        # Aggregate hits == sum of per-key hits.
        assert sum(per_key.values()) == stats["hits"]

    def test_per_key_hits_empty_until_first_hit(self):
        pool = ExecutablePool(capacity=4)
        pool.get(va(1024), "upmem", VA_PARAMS)  # miss only
        assert pool.stats()["per_key_hits"] == {}

    def test_key_label_is_readable_and_unique(self):
        key_a = ExecutablePool.key_for(mtv(32, 64), "upmem", MTV_PARAMS)
        key_b = ExecutablePool.key_for(mtv(16, 32), "upmem", MTV_PARAMS)
        label_a = ExecutablePool.key_label(key_a)
        label_b = ExecutablePool.key_label(key_b)
        assert label_a.startswith("mtv@upmem[")
        assert "cache=16" in label_a
        assert label_a != label_b  # digest disambiguates same-name keys
        assert ExecutablePool.key_label(key_a) == label_a  # deterministic

    def test_stats_reports_pinned_count(self):
        pool = ExecutablePool(capacity=4)
        assert pool.stats()["pinned"] == 0
        key = ExecutablePool.key_for(va(1024), "upmem", VA_PARAMS)
        pool.pin(key)
        assert pool.stats()["pinned"] == 1
        pool.unpin(key)
        assert pool.stats()["pinned"] == 0

    def test_stats_json_safe(self):
        import json

        pool = ExecutablePool(capacity=4)
        pool.get(va(1024), "upmem", VA_PARAMS)
        pool.get(va(1024), "upmem", VA_PARAMS)
        json.dumps(pool.stats())  # must not raise


class TestPrewarm:
    def test_prewarm_counts_new_compiles(self):
        pool = ExecutablePool(capacity=4)
        specs = [
            (mtv(32, 64), "upmem", MTV_PARAMS),
            (va(1024), "upmem", VA_PARAMS),
        ]
        assert pool.prewarm(specs) == 2
        assert pool.prewarm(specs) == 0  # already resident
        assert len(pool) == 2


class TestTunedWarmStart:
    def test_pool_resolves_params_from_database(self, tmp_path):
        """A completed search in the db: ``tuned_params`` returns the
        stored best without searching, and the pool compiles it."""
        db = str(tmp_path / "tune.jsonl")
        wl = mtv(64, 64)
        result = autotune(wl, n_trials=8, seed=0, db=db)
        pool = ExecutablePool()
        params = tuned_params(mtv(64, 64), db=db, n_trials=8)
        exe, loaded = pool.get(mtv(64, 64), "upmem", params)
        assert loaded
        assert exe.params == result.best_params

    def test_explicit_params_bypass_tuning(self):
        """The pool compiles the params a request carries; it has no
        tuning mode of its own."""
        exe, _ = ExecutablePool().get(mtv(32, 64), "upmem", MTV_PARAMS)
        assert exe.params == MTV_PARAMS
        with pytest.raises(TypeError, match="tuned"):
            ExecutablePool(tuned=True)
