"""The target table and the ``repro.compile`` front door."""

import numpy as np
import pytest

import repro
from repro.autotune import (
    Tuner,
    TuningCache,
    autotune,
    default_engine,
    tuned_params,
)
from repro.baselines import CpuModel, GpuModel
from repro.lowering import LowerOptions
from repro.obs import Tracer, use_tracer
from repro.pipeline import artifact_key, tuning_key
from repro.target import (
    CpuTarget,
    PrimTarget,
    SimplePimTarget,
    TargetError,
    UpmemTarget,
    default_params,
    get_target,
    list_targets,
)
from repro.upmem import DEFAULT_CONFIG, UpmemConfig
from repro.workloads import make_workload, mtv, red, va

SMALL = UpmemConfig().with_(n_ranks=2)


class TestRegistry:
    def test_all_four_kinds_registered(self):
        assert list_targets() == ["cpu", "prim", "simplepim", "upmem"]

    def test_get_target_by_kind(self):
        assert isinstance(get_target("upmem"), UpmemTarget)
        assert isinstance(get_target("prim"), PrimTarget)

    def test_get_target_passthrough(self):
        target = UpmemTarget(config=SMALL)
        assert get_target(target) is target

    def test_unknown_kind_rejected(self):
        with pytest.raises(TargetError):
            get_target("fpga")

    def test_labels_name_the_harness_columns(self):
        assert [get_target(kind).label for kind in list_targets()] == [
            "cpu", "prim", "simplepim", "upmem"
        ]


class TestStrictFrontDoor:
    """``repro.compile`` hands its extra keywords to a target that names
    every one it reads: a keyword it does not read raises instead of
    leaving the number at the default."""

    def test_options_with_a_workload_raise(self):
        options = LowerOptions(transfer_mode="bulk", boundary_checks=True)
        with pytest.raises(TargetError, match="explicit schedule"):
            repro.compile(mtv(256, 256), options=options)
        with pytest.raises(TargetError, match="explicit schedule"):
            repro.compile(mtv(256, 256), name="mtv")

    def test_misspelled_keyword_raises(self):
        with pytest.raises(TypeError, match="sise"):
            repro.compile(mtv(64, 64), target="prim", sise="64MB")

    def test_size_on_upmem_raises(self):
        with pytest.raises(TypeError, match="size"):
            repro.compile(mtv(64, 64), target="upmem", size="64MB")

    def test_unknown_keyword_with_a_graph_raises(self):
        """A model graph is no workload: the front door refuses it
        before reading any keyword, and names the graph compiler."""
        from ..graph.conftest import chain_graph

        with pytest.raises(TypeError, match="compile_graph"):
            repro.compile(chain_graph(), size="64MB")


class TestOptLevelChecked:
    @pytest.mark.parametrize("kind", ["cpu", "prim", "simplepim", "upmem"])
    def test_unknown_level_raises_everywhere(self, kind):
        with pytest.raises(ValueError, match="opt_level"):
            repro.compile(red(4096), target=kind, opt_level="O9")

    @pytest.mark.parametrize("kind", ["prim", "simplepim"])
    def test_fixed_structures_compile_only_at_O3(self, kind):
        """The O3 module is all these targets build; another level used
        to return it unchanged."""
        for level in ("O0", "O1", "O2"):
            with pytest.raises(TargetError, match="at O3"):
                repro.compile(va(4096), target=kind, opt_level=level)
        assert repro.compile(va(4096), target=kind).latency > 0

    def test_rooflines_accept_every_level(self):
        """A graph's host nodes compile at the pool's level."""
        latencies = {
            repro.compile(va(4096), target="cpu", opt_level=level).latency
            for level in ("O0", "O1", "O2", "O3")
        }
        assert len(latencies) == 1


class TestCompileAllTargets:
    """`repro.compile(w, target=t)` works for all four registered kinds."""

    @pytest.mark.parametrize("kind", ["upmem", "cpu", "prim"])
    def test_mtv_compiles(self, kind):
        exe = repro.compile(mtv(128, 128), target=kind)
        assert exe.latency > 0
        assert exe.profile() is not None
        assert exe.target.kind == kind

    def test_simplepim_compiles(self):
        exe = repro.compile(red(4096), target="simplepim")
        assert exe.latency > 0
        assert exe.target.kind == "simplepim"

    def test_latencies_are_comparable_floats(self):
        wl = make_workload("mtv", "4MB")
        latencies = {
            kind: repro.compile(wl, target=kind).latency
            for kind in ("upmem", "cpu", "prim")
        }
        assert all(
            isinstance(v, float) and v > 0 for v in latencies.values()
        )

    def test_explicit_params_respected(self):
        wl = mtv(256, 256)
        params = {
            "m_dpus": 16, "k_dpus": 1, "n_tasklets": 8, "cache": 32,
            "host_threads": 1,
        }
        exe = repro.compile(wl, target="upmem", params=params)
        assert exe.params == params
        assert exe.lowered.n_dpus == 16

    def test_opt_level_changes_kernel(self):
        wl = mtv(250, 250)  # misaligned: boundary checks matter
        params = {
            "m_dpus": 16, "k_dpus": 1, "n_tasklets": 8, "cache": 16,
            "host_threads": 1,
        }
        o0 = repro.compile(wl, target="upmem", params=params, opt_level="O0")
        o3 = repro.compile(wl, target="upmem", params=params, opt_level="O3")
        assert o3.profile().latency.kernel < o0.profile().latency.kernel


class TestUpmemTarget:
    def test_schedule_compile_matches_build(self):
        """A schedule compiles to what the ``build`` pipeline lowers."""
        from repro.upmem import FunctionalExecutor
        from tests.conftest import make_mtv_schedule

        sch = make_mtv_schedule(64, 32)
        exe = repro.compile(sch, target="upmem")
        lowered = repro.pipeline.build.run(make_mtv_schedule(64, 32))
        assert exe.script() == repro.tir.stmt_to_str(lowered.kernel)
        ins = {"A": np.ones((64, 32), np.float32), "B": np.ones(32, np.float32)}
        (a,) = exe.run(ins)
        (b,) = FunctionalExecutor(lowered).run(ins)
        assert a.tobytes() == b.tobytes()

    def test_invalid_params_raise(self):
        wl = mtv(64, 64)
        with pytest.raises(TargetError):
            # 64K-element WRAM caching tile cannot fit (64 KB WRAM).
            repro.compile(
                wl, target="upmem",
                params={"m_dpus": 64, "k_dpus": 1, "n_tasklets": 16,
                        "cache": 65536, "host_threads": 1},
            )

    def test_default_params_are_sketch_seed(self):
        wl = mtv(512, 512)
        params = default_params(wl, DEFAULT_CONFIG)
        exe = repro.compile(wl, target="upmem")
        assert exe.params == params

    def test_measure_is_the_compiled_latency(self):
        """``measure`` scores a lowered module with the machine's model:
        the latency its executable reports."""
        wl = mtv(128, 128)
        for target in (UpmemTarget(), UpmemTarget(config=SMALL)):
            exe = repro.compile(wl, target=target)
            assert target.measure(exe.lowered) == exe.latency

    def test_measure_skips_recompilation(self):
        module = repro.compile(mtv(64, 64)).lowered
        tracer = Tracer()
        with use_tracer(tracer):
            latency = UpmemTarget().measure(module)
        assert latency > 0 and len(tracer) == 0


class TestPrimTarget:
    def test_variants_ordering(self):
        """Grid-searched variants never lose to PrIM defaults."""
        wl = make_workload("mtv", "4MB")
        default = PrimTarget().compile(wl, size="4MB").latency
        e = PrimTarget(variant="e").compile(wl).latency
        search = PrimTarget(variant="search").compile(wl).latency
        assert e <= default * 1.001
        assert search <= e * 1.001

    def test_labels(self):
        assert PrimTarget().label == "prim"
        assert PrimTarget(variant="e").label == "prim_e"
        assert PrimTarget(variant="search").label == "prim_search"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PrimTarget(variant="ultra")

    def test_schedule_rejected(self):
        from tests.conftest import make_mtv_schedule

        with pytest.raises(TargetError):
            PrimTarget().compile(make_mtv_schedule(16, 16))

    def test_search_params_exposed(self):
        exe = PrimTarget(variant="search").compile(mtv(512, 512))
        assert exe.params and "n_tasklets" in exe.params

    def test_params_for_matches_compile(self):
        wl = make_workload("mtv", "4MB")
        default = PrimTarget()
        assert default.params_for(wl, size="4MB") == (
            default.compile(wl, size="4MB").params
        )
        e = PrimTarget(variant="e")
        assert e.params_for(wl) == e.compile(wl).params

    def test_supports_the_prim_table(self):
        assert PrimTarget().supports(mtv(64, 64))

    def test_invalid_params_raise(self):
        params = {"m_dpus": 64, "k_dpus": 1, "n_tasklets": 16,
                  "cache": 65536, "host_threads": 1}
        with pytest.raises(TargetError, match="PrIM baseline parameters"):
            repro.compile(mtv(64, 64), target="prim", params=params)


class TestSimplePimTarget:
    def test_supports_only_map_reduce(self):
        target = SimplePimTarget()
        assert target.supports(va(1024))
        assert target.supports(red(1024))
        assert not target.supports(mtv(32, 32))

    def test_unsupported_rejected(self):
        with pytest.raises(TargetError):
            SimplePimTarget().compile(mtv(32, 32))

    def test_schedule_rejected(self):
        from tests.conftest import make_mtv_schedule

        with pytest.raises(TargetError, match="compile a Workload"):
            repro.compile(make_mtv_schedule(16, 16), target="simplepim")

    def test_functional_run(self):
        wl = va(4096)
        exe = repro.compile(wl, target="simplepim")
        ins = wl.random_inputs(0)
        (out,) = exe.run(ins)
        np.testing.assert_allclose(out, wl.reference_output(ins), rtol=1e-5)


class TestRooflineTargets:
    def test_cpu_run_matches_reference(self):
        wl = mtv(64, 48)
        ins = wl.random_inputs(3)
        (out,) = repro.compile(wl, target="cpu").run(ins)
        np.testing.assert_allclose(out, ins["A"] @ ins["B"], rtol=1e-5)

    def test_gpu_faster_than_cpu(self):
        """Fig. 4 reads the GPU roofline directly; no target compiles
        for it."""
        wl = make_workload("mtv", "64MB")
        assert GpuModel().latency(wl) < CpuModel().latency(wl)
        assert "gpu" not in list_targets()

    def test_profile_breakdown_totals(self):
        wl = make_workload("va", "4MB")
        prof = repro.compile(wl, target="cpu").profile()
        assert prof.latency.total == pytest.approx(
            CpuTarget().model.latency(wl)
        )

    def test_schedule_rejected(self):
        from tests.conftest import make_mtv_schedule

        with pytest.raises(TargetError):
            repro.compile(make_mtv_schedule(16, 16), target="cpu")


class TestCacheKeys:
    _PARAMS = {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 4, "cache": 16,
               "host_threads": 1}

    def test_same_pipeline_targets_share_artifacts(self):
        """The upmem target and the PrIM baselines compile one (workload,
        params) pair alike, so they share one cache entry: a tuner's
        candidates and a baseline sweep over the same points compile
        once."""
        wl = mtv(64, 64)
        upmem = repro.compile(wl, target="upmem", params=self._PARAMS)
        prim = repro.compile(wl, target="prim", params=self._PARAMS)
        assert upmem.lowered is prim.lowered
        assert upmem.lowered is default_engine().compile(
            wl, self._PARAMS, config=DEFAULT_CONFIG
        ).module

    def test_digests_are_pinned(self):
        """A disk tier or tuning database written by an earlier build is
        read only while these digests hold; a change here needs a
        ``CACHE_SCHEMA_VERSION`` bump."""
        wl = mtv(64, 64)
        assert artifact_key(wl, self._PARAMS, DEFAULT_CONFIG, "O3") == (
            "a8eabcd19da8ffdfe73d1b1d6e23a5eb12758eafc91e2ad3c8dd5bac747b01df"
        )
        assert artifact_key(wl, self._PARAMS, DEFAULT_CONFIG, "O0") == (
            "f76ec5c4c44a1a151373efc912a384d7381e6cb9e7127cf073a3cae813af1f7e"
        )
        assert tuning_key(wl, DEFAULT_CONFIG, "upmem", "O3") == (
            "d2ce278bb9f419095ca353115c82c0f53522f258cc47518e8a2de1b55a189aeb"
        )
        assert tuning_key(wl, DEFAULT_CONFIG, "upmem", "O0") == (
            "099a9500f2db55b4ef2acf566e15545d438ec28075b5f0d54d815a1cf29b6e21"
        )


class TestCrossTargetTuning:
    def test_tuner_accepts_target_kind(self):
        wl = mtv(256, 256)
        r_default = autotune(wl, n_trials=8, seed=0)
        r_target = autotune(wl, n_trials=8, seed=0, target="upmem")
        assert r_default.best_params == r_target.best_params
        assert r_default.best_latency == r_target.best_latency

    @pytest.mark.parametrize("kind", ["cpu", "prim", "simplepim"])
    def test_baseline_tuning_raises(self, kind):
        """Only a target whose model prices a module can score a search."""
        with pytest.raises(TargetError, match="cannot measure modules"):
            autotune(va(4096), n_trials=2, batch_size=2, target=kind)

    @pytest.mark.parametrize("kind", ["cpu", "prim", "simplepim"])
    def test_tuner_raises_when_built(self, kind):
        with pytest.raises(TargetError, match="cannot measure modules"):
            Tuner(va(4096), target=kind)

    @pytest.mark.parametrize("kind", ["cpu", "prim", "simplepim"])
    def test_tuned_params_raises_and_writes_nothing(self, kind, tmp_path):
        db = tmp_path / "tuning.jsonl"
        with pytest.raises(TargetError, match="cannot measure modules"):
            tuned_params(va(4096), target=kind, db=str(db), n_trials=2)
        assert not db.exists()

    def test_tuner_searches_the_configured_machine(self):
        wl = mtv(128, 128)
        target = UpmemTarget(config=SMALL)
        tuner = Tuner(wl, target=target, n_trials=4, batch_size=2)
        assert tuner.target is target and tuner.config is SMALL
        result = tuner.tune()
        module = default_engine().compile(
            wl, result.best_params, config=SMALL
        ).module
        assert result.best_latency == target.measure(module)

    def test_tuned_params_keys_the_configured_machine(self, tmp_path):
        wl = mtv(128, 128)
        db = str(tmp_path / "tuning.jsonl")
        tuned_params(wl, target=UpmemTarget(config=SMALL), db=db, n_trials=4)
        cache = TuningCache(db)
        assert cache.completed_trials(tuning_key(wl, SMALL, "upmem")) == 4
        assert cache.completed_trials(
            tuning_key(wl, DEFAULT_CONFIG, "upmem")
        ) == 0

    def test_custom_config_target_tuning(self):
        wl = mtv(128, 128)
        result = autotune(wl, n_trials=8, seed=0, target=UpmemTarget(SMALL))
        # The small machine bounds the search space.
        assert result.best_params["m_dpus"] <= SMALL.n_dpus
