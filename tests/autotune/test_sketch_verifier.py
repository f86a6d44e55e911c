"""Sketch generation, parameter spaces, and the UPMEM verifier."""

import numpy as np
import pytest

import repro
from repro.autotune import (
    CompileEngine,
    SketchError,
    fixed_params,
    generate_schedule,
    param_space,
    subspace_of,
    verify,
)
from repro.autotune.compile import default_engine
from repro.serve import ExecutablePool
from repro.lowering import lower
from repro.upmem import FunctionalExecutor, UpmemConfig
from repro.workloads import geva, gemv, mmtv, mtv, red, ttv, va


class TestParamSpace:
    def test_all_workloads_have_spaces(self):
        for wl in (va(1024), geva(1024), red(4096), mtv(64, 64),
                   gemv(64, 64), ttv(8, 8, 64), mmtv(8, 8, 64)):
            space = param_space(wl)
            assert space
            assert all(len(domain) >= 1 for domain in space.values())

    def test_dpu_domain_respects_shape(self):
        space = param_space(va(128))
        assert max(space["n_dpus"]) <= 128

    def test_dpu_domain_respects_system(self):
        space = param_space(va(10**7), max_dpus=64)
        assert max(space["n_dpus"]) <= 64

    def test_reduction_split_is_capped_by_the_family_not_the_machine(self):
        assert param_space(mtv(64, 8192), max_dpus=8)["k_dpus"][-1] == 64
        assert param_space(mmtv(4, 4, 8192), max_dpus=4)["k_dpus"][-1] == 8
        assert param_space(red(1 << 20), max_dpus=8)["n_dpus"][-1] == 8

    def test_unknown_workload(self):
        wl = va(64)
        wl.name = "conv3d"
        with pytest.raises(KeyError):
            param_space(wl)

    def test_subspace_tagging(self):
        assert subspace_of("mtv", {"k_dpus": 4}) == "rfactor"
        assert subspace_of("mtv", {"k_dpus": 1}) == "plain"
        assert subspace_of("va", {"n_dpus": 8}) == "plain"


class TestParamsCheckedWhereTheyEnter:
    """A missing or misspelt parameter fails at the boundary, naming the
    key — not as a ``KeyError`` from inside a rule, and not as a second
    cache entry / pool slot for a module that already has one."""

    GOOD = {"m_dpus": 4, "n_tasklets": 2, "cache": 16}
    BAD = [
        ("missing", {"m_dpus": 4}, "missing 'n_tasklets'"),
        ("unknown", {**GOOD, "typo_dpus": 8}, "unknown 'typo_dpus'"),
    ]
    bad = pytest.mark.parametrize(
        "params,named", [b[1:] for b in BAD], ids=[b[0] for b in BAD]
    )

    @bad
    def test_sketch_names_the_key_and_the_family(self, params, named):
        with pytest.raises(SketchError, match=named) as err:
            generate_schedule(mtv(64, 64), params)
        assert "k_dpus" in str(err.value)  # lists the family's parameters

    @bad
    def test_engine_returns_a_negative_artifact(self, params, named):
        art = CompileEngine().compile(mtv(64, 64), params)
        assert not art.ok and not art.verified
        assert "SketchError" in art.error and named in art.error

    @bad
    def test_front_door_raises_target_error(self, params, named):
        with pytest.raises(repro.TargetError, match=named):
            repro.compile(mtv(64, 64), params=params)

    @bad
    def test_pool_keeps_no_entry(self, params, named):
        pool = ExecutablePool()
        with pytest.raises(repro.TargetError, match=named):
            pool.get(mtv(64, 64), "upmem", params=params)
        assert len(pool) == 0
        pool.get(mtv(64, 64), "upmem", params=self.GOOD)
        assert len(pool) == 1

    def test_optional_parameters_stay_optional(self):
        # PrIM's dicts carry no ``unroll``; ``k_dpus`` defaults to 1.
        assert generate_schedule(mtv(64, 64), self.GOOD)

    def test_fixed_params_rejects_foreign_overrides(self):
        with pytest.raises(SketchError, match="unknown 'dpu_combine'"):
            fixed_params(va(64), [4], 2, 16, dpu_combine=1)
        with pytest.raises(ValueError, match="distributes 2 axes"):
            fixed_params(mmtv(4, 4, 64), [4], 2, 16)


class TestSketchCorrectness:
    """Every sketch × parameter combination computes the right answer."""

    CASES = [
        (va(777), {"n_dpus": 8, "n_tasklets": 2, "cache": 16, "unroll": 1}),
        (geva(500), {"n_dpus": 4, "n_tasklets": 4, "cache": 8}),
        (red(3000), {"n_dpus": 4, "n_tasklets": 2, "cache": 16,
                     "dpu_combine": 1, "host_threads": 4}),
        (red(3000), {"n_dpus": 8, "n_tasklets": 4, "cache": 8,
                     "dpu_combine": 0, "host_threads": 1, "unroll": 1}),
        (mtv(45, 70), {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2,
                       "cache": 16, "host_threads": 1}),
        (mtv(45, 70), {"m_dpus": 2, "k_dpus": 2, "n_tasklets": 2,
                       "cache": 8, "host_threads": 4, "unroll": 1}),
        (gemv(33, 40), {"m_dpus": 4, "k_dpus": 2, "n_tasklets": 2,
                        "cache": 8, "host_threads": 1}),
        (ttv(5, 9, 33), {"i_dpus": 2, "j_dpus": 2, "k_dpus": 1,
                         "n_tasklets": 2, "cache": 8, "host_threads": 1}),
        (mmtv(5, 9, 33), {"i_dpus": 2, "j_dpus": 4, "k_dpus": 2,
                          "n_tasklets": 2, "cache": 8, "host_threads": 4}),
    ]

    @pytest.mark.parametrize(
        "workload,params", CASES,
        ids=[f"{w.name}-{i}" for i, (w, _p) in enumerate(CASES)],
    )
    def test_sketch_correct(self, workload, params):
        module = default_engine().compile(workload, params, opt_level="O3").module
        assert module is not None
        inputs = workload.random_inputs(7)
        out, = FunctionalExecutor(module).run(inputs)
        ref = workload.reference_output(inputs)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3"])
    def test_sketch_correct_across_opt_levels(self, level):
        wl = mtv(37, 53)
        params = {"m_dpus": 4, "k_dpus": 2, "n_tasklets": 2, "cache": 16,
                  "host_threads": 1}
        module = default_engine().compile(wl, params, opt_level=level).module
        inputs = wl.random_inputs(3)
        out, = FunctionalExecutor(module).run(inputs)
        np.testing.assert_allclose(
            out, wl.reference_output(inputs), rtol=1e-3
        )


class TestVerifier:
    def _module(self, **params):
        defaults = {"m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
                    "host_threads": 1}
        defaults.update(params)
        wl = mtv(256, 256)
        sch = generate_schedule(wl, defaults)
        return lower(sch)

    def test_valid_module_passes(self):
        ok, reason = verify(self._module())
        assert ok, reason

    def test_too_many_dpus_rejected(self):
        cfg = UpmemConfig().with_(n_ranks=1)  # 64 DPUs
        ok, reason = verify(self._module(m_dpus=256), cfg)
        assert not ok and "DPU" in reason

    def test_too_many_tasklets_rejected(self):
        module = self._module(n_tasklets=2)
        module.n_tasklets = 40  # simulate an invalid candidate
        ok, reason = verify(module)
        assert not ok and "tasklet" in reason

    def test_wram_overflow_rejected(self):
        # 24 tasklets x 512-element caches x 3 buffers overflows 64 KB.
        wl = mtv(2048, 2048)
        sch = generate_schedule(
            wl,
            {"m_dpus": 2, "k_dpus": 1, "n_tasklets": 24, "cache": 512,
             "host_threads": 1},
        )
        ok, reason = verify(lower(sch))
        assert not ok and "WRAM" in reason

    def test_engine_marks_invalid_unverified(self):
        wl = mtv(2048, 2048)
        bad = {"m_dpus": 2, "k_dpus": 1, "n_tasklets": 24, "cache": 512,
               "host_threads": 1}
        art = default_engine().compile(wl, bad)
        assert not art.verified and art.module is not None

    def test_mram_limit(self):
        cfg = UpmemConfig().with_(mram_bytes=1024)
        ok, reason = verify(self._module(), cfg)
        assert not ok and "MRAM" in reason
