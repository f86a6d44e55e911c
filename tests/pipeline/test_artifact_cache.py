"""CompiledArtifact cache semantics: hits, invalidation, disk tier."""

import hashlib
import os
import pickle
import shutil

import numpy as np
import pytest

from repro.autotune.compile import CompileEngine
from repro.pipeline import ArtifactCache, CompiledArtifact, artifact_key
from repro.upmem import FunctionalExecutor, UpmemConfig
from repro.autotune.features import extract_features
from repro.tir import simplify_stmt
from repro.upmem.system import PerformanceModel
from repro.workloads import mtv

from ..lowering.golden_corpus import module_text

PARAMS = {
    "m_dpus": 8, "k_dpus": 1, "n_tasklets": 4, "cache": 16, "host_threads": 1,
}


def _disk_entry(obj):
    """``obj`` in the disk tier's file format (digest, then pickle)."""
    body = pickle.dumps(obj)
    return hashlib.sha256(body).digest() + body


@pytest.fixture
def wl():
    return mtv(64, 64)


@pytest.fixture
def engine():
    return CompileEngine(cache=ArtifactCache())


class TestKeying:
    def test_same_inputs_same_key(self, wl):
        assert artifact_key(wl, PARAMS) == artifact_key(mtv(64, 64), dict(PARAMS))

    def test_param_order_irrelevant(self, wl):
        shuffled = dict(reversed(list(PARAMS.items())))
        assert artifact_key(wl, PARAMS) == artifact_key(wl, shuffled)

    def test_key_varies_with_each_component(self, wl):
        base = artifact_key(wl, PARAMS)
        assert artifact_key(mtv(64, 128), PARAMS) != base
        assert artifact_key(wl, {**PARAMS, "cache": 32}) != base
        assert artifact_key(wl, PARAMS, config=UpmemConfig().with_(n_ranks=2)) != base
        assert artifact_key(wl, PARAMS, opt_level="O1") != base


class TestHitMiss:
    def test_second_compile_hits(self, wl, engine):
        first = engine.compile(wl, PARAMS)
        assert engine.stats.misses == 1 and engine.stats.hits == 0
        second = engine.compile(wl, PARAMS)
        assert engine.stats.hits == 1
        assert second is first
        assert second.module is first.module

    def test_equal_workload_objects_share_artifacts(self, engine):
        engine.compile(mtv(64, 64), PARAMS)
        engine.compile(mtv(64, 64), dict(PARAMS))
        assert engine.stats.hits == 1

    def test_different_combiner_same_body_does_not_alias(self):
        from repro import te
        from repro.pipeline import workload_signature
        from repro.workloads import Workload

        def make(reducer):
            A = te.placeholder((64, 64), "float32", "A")
            B = te.placeholder((64,), "float32", "B")
            k = te.reduce_axis(64, "k")
            C = te.compute((64,), lambda i: reducer(A[i, k] * B[k], axis=k), "C")
            return Workload(
                name="mtv", inputs=[A, B], output=C,
                reference=lambda a, b: a @ b, flops=2.0 * 64 * 64,
                shape=(64, 64), reduce_extent=64,
            )

        assert workload_signature(make(te.sum)) != workload_signature(
            make(te.max_reduce)
        )

    def test_epilogues_differing_in_a_middle_stage_do_not_alias(self, engine):
        """Two softmax epilogues over one MMTV that differ only in the
        logits' scale — a middle stage: the output stage's body is the
        same text — are two signatures, two artifacts and two pool
        keys; a single-stage workload keeps its old signature."""
        from repro import te
        from repro.pipeline import workload_signature
        from repro.serve.pool import ExecutablePool
        from repro.workloads import mmtv, with_epilogue

        def softmax(scale):
            def epilogue(S):
                Z = te.compute((4, 8), lambda i, j: S[i, j] / scale, "Z")
                k = te.reduce_axis(8, "k")
                top = te.compute(
                    (4,), lambda i: te.max_reduce(Z[i, k], axis=k), "Z_max"
                )
                return te.compute(
                    (4, 8), lambda i, j: te.exp(Z[i, j] - top[i]), "E"
                )

            return with_epilogue(mmtv(4, 8, 32), epilogue, lambda s: s, 0.0)

        a, b = softmax(2.0), softmax(4.0)
        assert repr(a.output.op.body) == repr(b.output.op.body)
        assert workload_signature(a) != workload_signature(b)
        params = {
            "i_dpus": 2, "j_dpus": 2, "k_dpus": 1, "n_tasklets": 2,
            "cache": 16, "host_threads": 1, "unroll": 0,
        }
        assert artifact_key(a, params) != artifact_key(b, params)
        assert ExecutablePool.key_for(a, "upmem", params) != (
            ExecutablePool.key_for(b, "upmem", params)
        )
        assert engine.compile(a, params).module is not engine.compile(
            b, params
        ).module
        assert len(workload_signature(mtv(64, 64))) == 9
        assert len(workload_signature(a)) == 10

    def test_none_config_normalized_to_default(self, wl, engine):
        from repro.upmem.config import DEFAULT_CONFIG

        engine.compile(wl, PARAMS, config=None)
        engine.compile(wl, PARAMS, config=DEFAULT_CONFIG)
        assert engine.stats.hits == 1 and engine.stats.misses == 1

    def test_config_change_invalidates(self, wl, engine):
        engine.compile(wl, PARAMS, config=UpmemConfig())
        engine.compile(wl, PARAMS, config=UpmemConfig().with_(n_ranks=2))
        assert engine.stats.hits == 0 and engine.stats.misses == 2

    def test_opt_level_change_invalidates(self, wl, engine):
        o1 = engine.compile(wl, PARAMS, opt_level="O1")
        o3 = engine.compile(wl, PARAMS, opt_level="O3")
        assert engine.stats.misses == 2
        assert o1.module is not o3.module

    def test_params_change_invalidates(self, wl, engine):
        engine.compile(wl, PARAMS)
        engine.compile(wl, {**PARAMS, "n_tasklets": 8})
        assert engine.stats.misses == 2


class TestVerification:
    def test_verdict_cached(self, wl, engine):
        art = engine.compile(wl, PARAMS)
        assert art.verified is True
        again = engine.compile(wl, PARAMS)
        assert again.verified is True and engine.stats.hits == 1

    def test_invalid_for_small_system_cached(self, wl, engine):
        tiny = UpmemConfig().with_(n_ranks=1, dpus_per_rank=4)
        params = dict(PARAMS, m_dpus=64)
        art = engine.compile(wl, params, config=tiny)
        # Refused from the schedule, before lowering: no module to hold.
        assert not art.ok and art.verified is False
        assert "DPU" in art.error
        art2 = engine.compile(wl, params, config=tiny)
        assert art2.verified is False and engine.stats.hits == 1

    def test_rejected_sketch_is_unverified(self, wl, engine):
        art = engine.compile(wl, dict(PARAMS, cache=0))
        assert not art.ok and art.verified is False and art.error


class TestDiskTier:
    def test_roundtrip_across_cache_instances(self, wl, tmp_path):
        disk = str(tmp_path / "artifacts")
        hot = CompileEngine(cache=ArtifactCache(disk_dir=disk))
        built = hot.compile(wl, PARAMS)
        assert built.ok and hot.stats.misses == 1

        cold = CompileEngine(cache=ArtifactCache(disk_dir=disk))
        restored = cold.compile(wl, PARAMS)
        assert cold.stats.hits == 1 and cold.stats.disk_hits == 1
        assert restored.key == built.key

        # The unpickled module still executes correctly.
        rng = np.random.default_rng(0)
        a = rng.random((64, 64), dtype=np.float32)
        b = rng.random(64, dtype=np.float32)
        out, = FunctionalExecutor(restored.module).run({"A": a, "B": b})
        np.testing.assert_allclose(out, a @ b, rtol=1e-3)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda good, other: b"garbage",
            lambda good, other: good[: len(good) // 2],  # truncated
            lambda good, other: bytes(  # one bit flipped mid-stream
                b ^ (i == len(good) // 2) for i, b in enumerate(good)
            ),
            lambda good, other: _disk_entry({"module": None}),
            lambda good, other: other,  # another key's artifact, renamed
        ],
        ids=["garbage", "truncated", "bit-flipped", "non-artifact",
             "key-mismatch"],
    )
    def test_corrupt_disk_entry_is_miss(self, wl, tmp_path, corrupt):
        """A bad file is a miss the recompile overwrites — never a crash,
        never another program's module."""
        disk = tmp_path / "artifacts"
        cache = ArtifactCache(disk_dir=str(disk))
        engine = CompileEngine(cache=cache)
        built = engine.compile(wl, PARAMS)
        other = engine.compile(wl, {**PARAMS, "n_tasklets": 8})
        cache.clear()
        path = disk / f"{built.key}.pkl"
        good = path.read_bytes()
        path.write_bytes(
            corrupt(good, (disk / f"{other.key}.pkl").read_bytes())
        )
        art = engine.compile(wl, PARAMS)
        assert art.key == built.key and art.verified
        assert module_text(art.module) == module_text(built.module)
        assert engine.stats.misses == 3 and engine.stats.disk_hits == 0
        reread = ArtifactCache(disk_dir=str(disk))
        assert reread.get(built.key).key == built.key  # overwritten
        assert reread.stats.disk_hits == 1


class TestNodeCachesStayOutOfPickles:
    """Expression nodes cache derived facts (free variables, affine form,
    normal-form marks); artifacts on disk must hold the program only."""

    def test_roundtrip_prints_the_same_module(self, wl, engine):
        art = engine.compile(wl, PARAMS)
        restored = pickle.loads(pickle.dumps(art))
        assert module_text(restored.module) == module_text(art.module)
        assert simplify_stmt(restored.module.kernel) is not None  # caches rebuild

    def test_warm_caches_do_not_grow_the_pickle(self, wl, engine):
        art = engine.compile(wl, PARAMS)
        cold = pickle.dumps(pickle.loads(pickle.dumps(art)))  # no cache ever filled
        extract_features(art.module)
        simplify_stmt(art.module.kernel)
        warm = pickle.dumps(art)
        assert len(warm) <= len(cold)
        for slot in (b"_vars", b"_normal", b"_affine"):
            assert slot not in warm

    def test_entry_written_by_the_parent_commit(self, tmp_path):
        """A disk entry from before the caches existed is a hit that lowers
        to the same text and latency — or a clean miss, never a crash."""
        wl = mtv(60, 70)
        fresh = CompileEngine(cache=ArtifactCache()).compile(wl, PARAMS)
        disk = tmp_path / "artifacts"
        disk.mkdir()
        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "parent_commit_artifact.pkl"
        )
        shutil.copy(fixture, disk / f"{fresh.key}.pkl")
        engine = CompileEngine(cache=ArtifactCache(disk_dir=str(disk)))
        art = engine.compile(wl, PARAMS)
        assert art.ok and art.verified
        assert module_text(art.module) == module_text(fresh.module)
        latency = PerformanceModel(None).profile(art.module).latency.total
        assert latency == PerformanceModel(None).profile(fresh.module).latency.total
        assert engine.stats.disk_hits + engine.stats.misses == 1


class TestEviction:
    def test_lru_bound(self):
        cache = ArtifactCache(max_entries=2)
        for i in range(4):
            cache.put(CompiledArtifact(key=f"k{i}"))
        assert len(cache) == 2
        assert cache.get("k0") is None
        assert cache.get("k3") is not None

    def test_clear(self):
        cache = ArtifactCache()
        cache.put(CompiledArtifact(key="k"))
        cache.clear()
        assert len(cache) == 0
