"""HBM-PIM extension sketch (paper §8)."""

import pytest

from repro.autotune.compile import default_engine
from repro.extensions import HbmPimConfig, HbmPimEstimator
from repro.workloads import mtv


@pytest.fixture
def module():
    wl = mtv(1024, 1024)
    return default_engine().compile(
        wl,
        {"m_dpus": 64, "k_dpus": 4, "n_tasklets": 16, "cache": 64,
         "host_threads": 16},
    ).module


class TestHbmPim:
    """The pinned ``latency_s`` values are the parent commit's."""

    def test_pu_count(self):
        cfg = HbmPimConfig()
        assert cfg.n_pus == 64 * 16 // 2

    def test_estimate_positive(self, module):
        est = HbmPimEstimator().estimate(module, total_macs=1024 * 1024)
        assert est.supported
        assert est.latency_s > 0
        assert est.commands_per_pu > 0
        assert est.latency_s.hex() == "0x1.4c94918053dbbp-19"

    def test_latency_scales_with_work(self, module):
        est = HbmPimEstimator()
        small = est.estimate(module, total_macs=1024 * 1024)
        big = est.estimate(module, total_macs=16 * 1024 * 1024)
        assert big.latency_s > small.latency_s
        assert big.latency_s.hex() == "0x1.c6dbb8bf964a2p-18"

    def test_more_pus_faster(self, module):
        small_sys = HbmPimEstimator(HbmPimConfig(n_pseudo_channels=8))
        big_sys = HbmPimEstimator(HbmPimConfig(n_pseudo_channels=64))
        macs = 64 * 1024 * 1024
        big = big_sys.estimate(module, macs).latency_s
        small = small_sys.estimate(module, macs).latency_s
        assert big < small
        assert big.hex() == "0x1.5891ae2f6f75fp-16"
        assert small.hex() == "0x1.3b357cd631164p-13"

    def test_mac_only_support(self):
        est = HbmPimEstimator()
        assert est.supports("add")
        assert not est.supports("max")
        assert not est.supports(None)
