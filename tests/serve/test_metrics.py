"""Latency aggregation and serving counters."""

import json

import numpy as np
import pytest

from repro.serve import LatencyStats, ServerMetrics


class TestLatencyStats:
    def test_empty_is_zero(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.percentile(99) == 0.0
        assert stats.to_dict() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0
        }

    def test_nearest_rank_percentiles(self):
        stats = LatencyStats()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            stats.add(v)
        # Nearest-rank over {1..5}: p50 -> 3rd value, p95/p99 -> 5th.
        assert stats.percentile(50) == 3.0
        assert stats.percentile(95) == 5.0
        assert stats.percentile(99) == 5.0
        assert stats.percentile(0) == 1.0
        assert stats.percentile(100) == 5.0

    def test_percentiles_on_large_sample(self):
        rng = np.random.default_rng(0)
        values = rng.random(1000).tolist()
        stats = LatencyStats()
        for v in values:
            stats.add(v)
        ordered = sorted(values)
        assert stats.percentile(50) == ordered[499]
        assert stats.percentile(99) == ordered[989]
        assert stats.mean == sum(values) / len(values)

    def test_add_after_percentile_query(self):
        stats = LatencyStats()
        stats.add(2.0)
        assert stats.percentile(50) == 2.0
        stats.add(1.0)  # must re-sort lazily
        assert stats.percentile(0) == 1.0

    def test_scale_converts_units(self):
        stats = LatencyStats()
        stats.add(0.5)
        assert stats.to_dict(scale=1e3)["mean"] == 500.0

    def test_percentile_zero_is_min_contract(self):
        """percentile(0) == min and percentile(100) == max, explicitly."""
        stats = LatencyStats()
        for v in (3.0, 1.0, 2.0):
            stats.add(v)
        assert stats.percentile(0) == 1.0 == stats.min
        assert stats.percentile(100) == 3.0 == stats.max
        stats.add(0.5)  # min must track later, smaller samples
        assert stats.percentile(0) == 0.5 == stats.min

    def test_percentile_out_of_range_raises(self):
        stats = LatencyStats()
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.percentile(-1)
        with pytest.raises(ValueError):
            stats.percentile(100.1)

    def test_empty_min_max_are_zero(self):
        stats = LatencyStats()
        assert stats.min == 0.0
        assert stats.max == 0.0


class TestServerMetrics:
    def test_rejection_only_bucket_has_no_latency(self):
        m = ServerMetrics()
        m.record_reject("va")
        assert m.to_dict()["per_workload"] == {
            "va": {"submitted": 1, "rejected": 1, "completed": 0, "failed": 0}
        }

    def test_counter_flow(self):
        m = ServerMetrics()
        m.record_submit("mtv")
        m.record_submit("va")
        m.record_reject("va")
        m.record_flush(2)
        m.record_completion("mtv", latency_s=0.2, queue_s=0.1)
        m.record_completion("va", latency_s=0.4, queue_s=0.1)
        m.record_failure("mtv")
        assert m.submitted == 3
        assert m.accepted == 2
        assert m.rejected == 1
        assert m.completed == 2
        assert m.failed == 1
        assert m.per_workload["va"] == {
            "submitted": 2, "rejected": 1, "completed": 1, "failed": 0
        }
        assert m.per_workload["mtv"]["failed"] == 1

    def test_batch_histogram_and_mean(self):
        m = ServerMetrics()
        for size in (1, 4, 4, 16):
            m.record_flush(size)
        assert m.batch_sizes == {1: 1, 4: 2, 16: 1}
        assert m.mean_batch == 25 / 4

    def test_throughput_guards_zero_elapsed(self):
        m = ServerMetrics()
        assert m.throughput(0.0) == 0.0
        m.record_completion("va", 0.1, 0.0)
        assert m.throughput(2.0) == 0.5

    def test_to_dict_shape(self):
        m = ServerMetrics()
        m.record_submit("mtv")
        m.record_flush(1)
        m.record_completion("mtv", latency_s=0.25, queue_s=0.05)
        payload = m.to_dict(elapsed_s=0.5, pool_stats={"hits": 3})
        assert payload["throughput_rps"] == 2.0
        assert payload["latency_ms"]["p99"] == 250.0
        assert payload["batch_histogram"] == {"1": 1}
        assert payload["per_workload"]["mtv"]["latency_ms"]["count"] == 1
        assert payload["pool"] == {"hits": 3}

    def test_to_dict_without_pool(self):
        assert "pool" not in ServerMetrics().to_dict()


class TestTokenAndTenantMetrics:
    """PR 9: TTFT/TPOT series + per-tenant counters (schema v2)."""

    def test_schema_version_present(self):
        from repro.serve import METRICS_SCHEMA_VERSION

        payload = ServerMetrics().to_dict()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION == 2

    def test_token_latencies_aggregate(self):
        m = ServerMetrics()
        m.record_token_latencies("acme", ttft_s=0.2, tpot_s=0.01, tokens=8)
        m.record_token_latencies("acme", ttft_s=0.4, tpot_s=0.03, tokens=4)
        payload = m.to_dict()
        assert payload["ttft_ms"]["count"] == 2
        assert payload["ttft_ms"]["p99"] == 400.0
        assert payload["tpot_ms"]["mean"] == 20.0
        bucket = payload["per_tenant"]["acme"]
        assert bucket["completed"] == 2
        assert bucket["tokens"] == 12

    def test_tenant_admission_counters(self):
        m = ServerMetrics()
        m.record_tenant_submit("a")
        m.record_tenant_reject("a")
        m.record_tenant_reject("b", slo=True)
        m.record_tenant_failure("a")
        m.record_tenant_preemption("b")
        tenants = m.to_dict()["per_tenant"]
        assert tenants["a"] == {
            "submitted": 2, "rejected": 1, "rejected_slo": 0,
            "completed": 0, "failed": 1, "preempted": 0, "tokens": 0,
        }
        assert tenants["b"]["rejected_slo"] == 1
        assert tenants["b"]["preempted"] == 1

    def test_empty_metrics_have_empty_tenant_map(self):
        payload = ServerMetrics().to_dict()
        assert payload["per_tenant"] == {}
        assert payload["ttft_ms"]["count"] == 0

    def test_payload_json_safe(self):
        m = ServerMetrics()
        m.record_token_latencies("t", 0.1, 0.02, 5)
        json.dumps(m.to_dict())
