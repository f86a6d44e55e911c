"""Persistent tuning database: dedupe, JSON-lines format, TuningCache."""

import json

import numpy as np
import pytest

from repro.autotune import (
    DB_SCHEMA_VERSION,
    Database,
    DatabaseFormatError,
    TuningCache,
    TuningRecord,
)
from repro.autotune.database import DB_FORMAT
from repro.pipeline import tuning_key
from repro.upmem import DEFAULT_CONFIG
from repro.workloads import mtv, red


def _record(lat, subspace="plain", trial=0, features=None, **params):
    return TuningRecord(
        params=params, subspace=subspace, latency=lat,
        features=features, trial=trial,
    )


class TestDedupe:
    def test_duplicate_key_not_returned_twice_by_top_k(self):
        # Regression: two adds of identical params used to both appear in
        # top_k, collapsing elite diversity.
        db = Database()
        db.add(_record(1.0, x=1))
        db.add(_record(2.0, x=1))
        db.add(_record(3.0, x=2))
        top = db.top_k(3)
        assert len(top) == 2
        assert [r.key for r in top] == [(("x", 1),), (("x", 2),)]

    def test_duplicate_keeps_best_latency(self):
        db = Database()
        db.add(_record(2.0, x=1))
        db.add(_record(1.0, x=1))  # better: replaces
        db.add(_record(5.0, x=1))  # worse: ignored
        assert len(db) == 1
        assert db.best().latency == 1.0

    def test_seen_keeps_min_not_last_write(self):
        db = Database()
        db.add(_record(1.0, x=1))
        assert db.add(_record(9.0, x=1)) is False
        # Internal floor is the min, and the record reflects it too.
        assert db._seen[(("x", 1),)] == 1.0

    def test_merge_counts_changes(self):
        # Folding one database into another is ``add`` per record:
        # best latency wins and ``add`` says whether anything changed.
        a = Database()
        a.add(_record(2.0, x=1))
        b = Database()
        b.add(_record(1.0, x=1))   # improves
        b.add(_record(3.0, x=2))   # new
        b.add(_record(9.0, x=1))   # worse than both: no-op
        assert sum(a.add(record) for record in b.records()) == 2
        assert len(a) == 2
        assert a.best().latency == 1.0


def _store(path, *records):
    """A one-group store at ``path`` holding ``records``."""
    cache = TuningCache(path)
    cache.append("k", list(records))
    return cache


class TestSaveLoad:
    """The on-disk format, written by ``TuningCache.append`` and read by
    ``TuningCache.load`` — the one writer and the one reader."""

    def test_roundtrip_preserves_records_and_features(self, tmp_path):
        feats = np.arange(4, dtype=np.float64)
        cache = _store(
            tmp_path / "db.jsonl",
            _record(1.5, subspace="rfactor", trial=3, features=feats,
                    m_dpus=64, cache=32),
            _record(2.5, x=7),
        )
        loaded = cache.load()
        assert len(loaded) == 2
        best = loaded.best()
        assert best.params == {"m_dpus": 64, "cache": 32}
        assert best.subspace == "rfactor"
        assert best.trial == 3
        np.testing.assert_allclose(best.features, feats)
        assert loaded.top_k(2)[1].features is None

    def test_empty_file_and_blank_lines_load(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text("")
        assert len(TuningCache(path).load()) == 0
        cache = _store(path, _record(1.0, x=1))
        with open(path, "a") as fh:
            fh.write("\n")
        cache.append("g", [_record(2.0, x=2)])
        assert len(cache.load()) == 2

    def test_header_written_with_version(self, tmp_path):
        path = tmp_path / "db.jsonl"
        _store(path, _record(1.0, x=1))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": DB_FORMAT, "version": DB_SCHEMA_VERSION}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        # A killed writer leaves a partial final line; loading must keep
        # the intact prefix.
        path = tmp_path / "db.jsonl"
        cache = _store(path, _record(1.0, x=1), _record(2.0, x=2))
        with open(path, "a") as fh:
            fh.write('{"params": {"x": 3}, "laten')
        assert len(cache.load()) == 2

    def test_complete_corrupt_final_line_rejected(self, tmp_path):
        # A corrupt but newline-terminated final line is damage, not a
        # killed writer — it must raise, not be silently dropped.
        path = tmp_path / "db.jsonl"
        cache = _store(path, _record(1.0, x=1))
        with open(path, "a") as fh:
            fh.write("corrupt but complete line\n")
        with pytest.raises(DatabaseFormatError):
            cache.load()

    def test_non_object_json_line_rejected(self, tmp_path):
        # Valid JSON that is not a record object is damage too, not a
        # TypeError waiting to happen in consumers.
        for n, stray in enumerate(("42\n", "[1, 2]\n")):
            path = tmp_path / f"db{n}.jsonl"
            cache = _store(path, _record(1.0, x=1))
            with open(path, "a") as fh:
                fh.write(stray)
            with pytest.raises(DatabaseFormatError):
                cache.load()

    def test_multi_group_roundtrip_preserves_groups(self, tmp_path):
        # A whole-file load must not collapse coincidentally equal
        # params from different groups.
        cache = TuningCache(tmp_path / "store.jsonl")
        cache.append("k1", [_record(5.0, n_dpus=512)])
        cache.append("k2", [_record(1.0, n_dpus=512)])
        db = TuningCache(tmp_path / "store.jsonl").load()
        assert len(db) == 2
        assert {r.group for r in db.records()} == {"k1", "k2"}

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = tmp_path / "db.jsonl"
        cache = _store(path, _record(1.0, x=1))
        text = path.read_text() + '{"params": {"x": 2}, "latency": 2.0}\n'
        lines = text.splitlines()
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatabaseFormatError):
            cache.load()

    def test_torn_header_reads_as_empty_store(self, tmp_path):
        # A writer killed during the very first append leaves only a
        # partial header; readers must treat that as an empty store, not
        # crash every later --resume / tuned_params on the path.
        path = tmp_path / "db.jsonl"
        path.write_text(json.dumps({"format": DB_FORMAT})[:14])
        cache = TuningCache(path)
        assert len(cache.load()) == 0
        assert cache.completed_trials("k") == 0
        # Appending heals the fragment and the store works normally.
        cache.append("k", [_record(1.0, x=1)])
        assert cache.best("k").latency == 1.0

    def test_torn_header_tolerance_is_specific(self, tmp_path):
        # A random single-line file that is NOT a header prefix still
        # raises: silence is reserved for our own killed writer.
        path = tmp_path / "junk.jsonl"
        path.write_text("definitely not a tuning db")
        with pytest.raises(DatabaseFormatError):
            TuningCache(path).load()

    def test_newer_version_refused(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text(
            json.dumps({"format": DB_FORMAT,
                        "version": DB_SCHEMA_VERSION + 1}) + "\n"
        )
        with pytest.raises(DatabaseFormatError):
            TuningCache(path).load()

    def test_non_database_file_refused(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(DatabaseFormatError):
            TuningCache(path).load()


class TestTuningCache:
    def test_append_and_load_by_key(self, tmp_path):
        cache = TuningCache(tmp_path / "store.jsonl")
        cache.append("k1", [_record(1.0, x=1), _record(2.0, x=2)])
        cache.append("k2", [_record(0.5, x=3)])
        assert len(cache.load("k1")) == 2
        assert len(cache.load("k2")) == 1
        assert len(cache.load()) == 3
        assert cache.keys() == ["k1", "k2"]

    def test_best_per_group(self, tmp_path):
        cache = TuningCache(tmp_path / "store.jsonl")
        cache.append("k1", [_record(3.0, x=1)])
        cache.append("k1", [_record(1.0, x=2)])
        assert cache.best("k1").latency == 1.0
        assert cache.best("missing") is None

    def test_missing_file_loads_empty(self, tmp_path):
        cache = TuningCache(tmp_path / "absent.jsonl")
        assert not cache.exists()
        assert len(cache.load("k")) == 0
        assert cache.keys() == []

    def test_meta_fields_ignored_on_load(self, tmp_path):
        cache = TuningCache(tmp_path / "store.jsonl")
        cache.append("k", [_record(1.0, x=1)],
                     meta={"workload": "mtv", "target": "upmem"})
        line = json.loads(
            (tmp_path / "store.jsonl").read_text().splitlines()[1]
        )
        assert line["workload"] == "mtv" and line["target"] == "upmem"
        assert cache.best("k").params == {"x": 1}

    def test_ensure_passes_instances_through(self, tmp_path):
        cache = TuningCache(tmp_path / "store.jsonl")
        assert TuningCache.ensure(cache) is cache
        assert TuningCache.ensure(str(tmp_path / "other.jsonl")).path == str(
            tmp_path / "other.jsonl"
        )

    def test_creates_parent_directories(self, tmp_path):
        cache = TuningCache(tmp_path / "nested" / "dir" / "store.jsonl")
        cache.append("k", [_record(1.0, x=1)])
        assert cache.best("k") is not None

    def test_refuses_to_append_to_foreign_file(self, tmp_path):
        # Appending (and its torn-tail heal/truncate) must not damage a
        # file that was never a tuning database.
        path = tmp_path / "notes.txt"
        original = "my notes\nlast line no newline"
        path.write_text(original)
        cache = TuningCache(path)
        with pytest.raises(DatabaseFormatError):
            cache.append("k", [_record(1.0, x=1)])
        assert path.read_text() == original

    def test_refuses_to_append_to_newer_version_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            json.dumps({"format": DB_FORMAT,
                        "version": DB_SCHEMA_VERSION + 1}) + "\n"
        )
        before = path.read_text()
        with pytest.raises(DatabaseFormatError):
            TuningCache(path).append("k", [_record(1.0, x=1)])
        assert path.read_text() == before

    def test_identical_params_in_distinct_groups_both_load(self, tmp_path):
        # Same param dict under two group digests (different workloads)
        # must not collapse into one record on a whole-file load.
        cache = TuningCache(tmp_path / "store.jsonl")
        cache.append("k1", [_record(5.0, n_dpus=512)])
        cache.append("k2", [_record(1.0, n_dpus=512)])
        db = cache.load()
        assert len(db) == 2
        assert {r.latency for r in db.records()} == {1.0, 5.0}
        assert {r.group for r in db.records()} == {"k1", "k2"}
        # Within one group the dedupe still applies.
        assert len(cache.load("k1")) == 1
        # contains() is group-aware too: k1's params don't shadow the
        # default group a search would use.
        assert not db.contains({"n_dpus": 512})
        assert db.contains({"n_dpus": 512}, group="k1")
        assert not db.contains({"n_dpus": 512}, group="k3")

    def test_append_after_torn_trailing_line_heals_file(self, tmp_path):
        # Regression: appending after a killed writer used to glue the
        # first new record onto the torn fragment — silently dropping it
        # and corrupting every later load once more lines followed.
        path = tmp_path / "store.jsonl"
        cache = TuningCache(path)
        cache.append("k", [_record(1.0, x=1)])
        with open(path, "a") as fh:
            fh.write('{"key": "k", "params": {"x": 9}, "laten')
        cache.append("k", [_record(2.0, x=2)])
        cache.append("k", [_record(3.0, x=3)])
        db = cache.load("k")
        assert {r.latency for r in db.records()} == {1.0, 2.0, 3.0}

    def test_run_complete_markers(self, tmp_path):
        cache = TuningCache(tmp_path / "store.jsonl")
        assert cache.completed_trials("k") == 0
        cache.append("k", [_record(1.0, x=1)])
        assert cache.completed_trials("k") == 0  # records alone don't count
        cache.mark_complete("k", 16, meta={"seed": 3})
        cache.mark_complete("k", 8)
        cache.mark_complete("other", 64)
        assert cache.completed_trials("k") == 16
        # Event lines are invisible to record loads.
        assert len(cache.load("k")) == 1
        assert len(cache.load()) == 1


class TestTuningKey:
    def test_same_inputs_same_key(self):
        assert tuning_key(mtv(64, 64), DEFAULT_CONFIG, "upmem") == tuning_key(
            mtv(64, 64), DEFAULT_CONFIG, "upmem"
        )

    def test_distinct_workloads_targets_configs_distinct_keys(self):
        base = tuning_key(mtv(64, 64), DEFAULT_CONFIG, "upmem")
        assert tuning_key(mtv(128, 64), DEFAULT_CONFIG, "upmem") != base
        assert tuning_key(red(1000), DEFAULT_CONFIG, "upmem") != base
        assert tuning_key(mtv(64, 64), DEFAULT_CONFIG, "hbm-pim") != base
        assert tuning_key(
            mtv(64, 64), DEFAULT_CONFIG.with_(n_ranks=2), "upmem"
        ) != base
        # O0 and O3 measure differently; they must not share a group.
        assert tuning_key(
            mtv(64, 64), DEFAULT_CONFIG, "upmem", opt_level="O0"
        ) != base

    def test_target_instance_and_kind_string_agree(self):
        from repro.autotune import Tuner
        from repro.target import UpmemTarget

        key = tuning_key(mtv(64, 64), DEFAULT_CONFIG, "upmem")
        assert Tuner(mtv(64, 64), target=UpmemTarget()).db_key == key
        assert Tuner(mtv(64, 64), target="upmem").db_key == key
