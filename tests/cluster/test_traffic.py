"""Multi-tenant trace generation: determinism, shape, tenant mixing."""

import pytest

from repro.cluster import (
    TenantSpec,
    default_tenants,
    generate_cluster_trace,
    sessions_from_trace,
)
from repro.cluster.traffic import _MODEL_LAYERS, _PROMPT_TOKENS


class TestGeneration:
    def test_deterministic(self):
        tenants = default_tenants()
        a = generate_cluster_trace(32, tenants, seed=5)
        b = generate_cluster_trace(32, tenants, seed=5)
        assert a == b

    def test_seed_changes_trace(self):
        tenants = default_tenants()
        assert generate_cluster_trace(16, tenants, seed=1) != \
            generate_cluster_trace(16, tenants, seed=2)

    def test_arrivals_monotonic_and_count_exact(self):
        trace = generate_cluster_trace(50, default_tenants(), seed=0)
        assert len(trace) == 50
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert len({r.session_id for r in trace}) == 50

    def test_bursts_produce_simultaneous_arrivals(self):
        trace = generate_cluster_trace(
            60, default_tenants(), seed=0, burst_prob=0.9, burst_size=4
        )
        arrivals = [r.arrival_s for r in trace]
        assert any(
            arrivals[i] == arrivals[i + 1] for i in range(len(arrivals) - 1)
        )

    def test_mixed_model_sizes_appear(self):
        trace = generate_cluster_trace(60, default_tenants(), seed=0)
        assert {r.layers for r in trace} == {l for l, _ in _MODEL_LAYERS}
        low, high = _PROMPT_TOKENS
        assert all(low <= r.prompt_tokens <= high for r in trace)

    def test_tenant_weights_respected(self):
        tenants = [
            TenantSpec("heavy", weight=10.0),
            TenantSpec("light", weight=0.1),
        ]
        trace = generate_cluster_trace(100, tenants, seed=0)
        counts = {t.name: 0 for t in tenants}
        for r in trace:
            counts[r.tenant] += 1
        assert counts["heavy"] > counts["light"]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_requests"):
            generate_cluster_trace(0, default_tenants())
        with pytest.raises(ValueError, match="TenantSpec"):
            generate_cluster_trace(4, [])


class TestMaterialization:
    def test_slo_class_applied(self):
        tenants = default_tenants()
        by_name = {t.name: t for t in tenants}
        trace = generate_cluster_trace(20, tenants, seed=0)
        for session in sessions_from_trace(trace, tenants):
            spec = by_name[session.tenant]
            assert session.ttft_deadline_s == spec.ttft_slo_s
            assert session.tpot_deadline_s == spec.tpot_slo_s
