"""O0→O3 applied to real lowered kernels: correctness + monotonicity."""

import numpy as np
import pytest

import repro
from repro.optim import LEVELS
from repro.upmem import FunctionalExecutor
from repro.upmem.system import PerformanceModel

from ..conftest import make_mtv_schedule


def profiles_for_levels(m, k, **kwargs):
    rng = np.random.default_rng(3)
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random(k, dtype=np.float32)
    ref = a @ b
    model = PerformanceModel()
    results = {}
    for level in LEVELS:
        sch = make_mtv_schedule(m, k, **kwargs)
        module = repro.compile(sch, opt_level=level).lowered
        out, = FunctionalExecutor(module).run({"A": a, "B": b})
        np.testing.assert_allclose(out, ref, rtol=1e-3)
        results[level] = model.profile(module)
    return results


class TestMisalignedMTV:
    @pytest.fixture(scope="class")
    def profiles(self):
        return profiles_for_levels(37, 50)

    def test_all_levels_correct(self, profiles):
        assert set(profiles) == set(LEVELS)

    def test_dma_elim_reduces_dma_calls(self, profiles):
        assert profiles["O1"].dpu.dma_calls < profiles["O0"].dpu.dma_calls

    def test_each_level_not_slower(self, profiles):
        times = [profiles[lv].latency.kernel for lv in LEVELS]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier * 1.001

    def test_o3_meaningfully_faster_than_o0(self, profiles):
        assert (
            profiles["O0"].latency.kernel
            > profiles["O3"].latency.kernel * 1.5
        )

    def test_instruction_count_decreases(self, profiles):
        instrs = [profiles[lv].dpu.instructions for lv in LEVELS]
        assert instrs == sorted(instrs, reverse=True)


class TestAlignedMTV:
    def test_aligned_shape_unaffected_by_lt_bh(self):
        profiles = profiles_for_levels(64, 64)
        # No boundary checks exist, so O2/O3 equal O1.
        assert profiles["O2"].latency.kernel == pytest.approx(
            profiles["O1"].latency.kernel
        )
        assert profiles["O3"].latency.kernel == pytest.approx(
            profiles["O1"].latency.kernel
        )

    def test_dma_still_helps_aligned(self):
        profiles = profiles_for_levels(64, 64)
        assert profiles["O1"].latency.kernel < profiles["O0"].latency.kernel


class TestRfactorPipeline:
    def test_rfactor_misaligned_all_levels_correct(self):
        profiles = profiles_for_levels(37, 50, k_dpus=2)
        assert profiles["O3"].latency.kernel <= profiles["O0"].latency.kernel
