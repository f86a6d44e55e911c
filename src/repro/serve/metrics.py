"""Serving telemetry: admission counters and latency aggregation.

Everything here is computed from *simulated* per-request latencies (the
virtual clock and the targets' analytic/simulated performance models),
so the numbers are deterministic for a given traffic trace regardless of
host thread count or machine speed.  :meth:`ServerMetrics.to_dict`
returns a JSON-safe dict the harness embeds in its ``--json`` dumps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["METRICS_SCHEMA_VERSION", "LatencyStats", "ServerMetrics"]

#: Version of the :meth:`ServerMetrics.to_dict` payload shape.
#:
#: History:
#:   1 — PR 4–8 (implicit; no version field): request-level counters,
#:       latency/queue-wait percentiles, per-workload buckets,
#:       batch histogram, optional pool stats.
#:   2 — PR 9: adds ``schema_version`` itself, token-level serving
#:       series ``ttft_ms``/``tpot_ms`` (time-to-first-token and
#:       time-per-output-token, populated by iteration-granularity
#:       servers), and ``per_tenant`` counters (submitted / rejected /
#:       rejected_slo / completed / failed / preempted / tokens).
METRICS_SCHEMA_VERSION = 2


class LatencyStats:
    """Streaming collection of latencies with percentile queries.

    Percentiles use the nearest-rank method on the sorted sample — exact,
    deterministic, and honest about small samples (no interpolation
    inventing latencies nobody experienced).
    """

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100].

        ``percentile(0)`` is defined as the sample **minimum** (and
        ``percentile(100)`` the maximum) — the nearest-rank rank formula
        clamps to rank 1, and that contract is explicit so dashboards
        can rely on ``p0``/``p100`` as min/max.  An empty sample returns
        0.0 for any ``p``; ``p`` outside [0, 100] raises.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile p must be in [0, 100], got {p}")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * len(self._values)))
        return self._values[min(rank, len(self._values)) - 1]

    @property
    def min(self) -> float:
        """Sample minimum (== ``percentile(0)``); 0.0 when empty."""
        return self.percentile(0)

    @property
    def max(self) -> float:
        """Sample maximum (== ``percentile(100)``); 0.0 when empty."""
        return self.percentile(100)

    def to_dict(self, scale: float = 1.0) -> Dict[str, float]:
        """Summary dict; ``scale`` converts units (e.g. 1e3 for ms)."""
        return {
            "count": self.count,
            "mean": self.mean * scale,
            "p50": self.percentile(50) * scale,
            "p95": self.percentile(95) * scale,
            "p99": self.percentile(99) * scale,
        }


class ServerMetrics:
    """Counters + latency aggregation for one :class:`Server` lifetime."""

    def __init__(self) -> None:
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.flushes = 0
        self.latency = LatencyStats()
        self.queue_wait = LatencyStats()
        #: Time to first token per request (iteration-level serving).
        self.ttft = LatencyStats()
        #: Mean time per output token per request (decode cadence).
        self.tpot = LatencyStats()
        #: Flush-size histogram: batch size -> number of flushes.
        self.batch_sizes: Dict[int, int] = {}
        #: Workload name -> {submitted, rejected, completed} counters.
        self.per_workload: Dict[str, Dict[str, int]] = {}
        self._per_workload_latency: Dict[str, LatencyStats] = {}
        #: Tenant -> admission/completion counters (multi-tenant serving).
        self.per_tenant: Dict[str, Dict[str, int]] = {}

    # -- recording ----------------------------------------------------------
    def _workload_bucket(self, name: str) -> Dict[str, int]:
        return self.per_workload.setdefault(
            name,
            {"submitted": 0, "rejected": 0, "completed": 0, "failed": 0},
        )

    def record_submit(self, workload: str) -> None:
        self.submitted += 1
        self.accepted += 1
        self._workload_bucket(workload)["submitted"] += 1

    def record_reject(self, workload: str) -> None:
        self.submitted += 1
        self.rejected += 1
        bucket = self._workload_bucket(workload)
        bucket["submitted"] += 1
        bucket["rejected"] += 1

    def record_failure(self, workload: str) -> None:
        self.failed += 1
        self._workload_bucket(workload)["failed"] += 1

    def record_flush(self, batch_size: int) -> None:
        self.flushes += 1
        self.batch_sizes[batch_size] = self.batch_sizes.get(batch_size, 0) + 1

    def record_completion(
        self, workload: str, latency_s: float, queue_s: float
    ) -> None:
        self.completed += 1
        self.latency.add(latency_s)
        self.queue_wait.add(queue_s)
        self._workload_bucket(workload)["completed"] += 1
        self._per_workload_latency.setdefault(workload, LatencyStats()).add(
            latency_s
        )

    # -- token-level + tenant recording (iteration-granularity serving) ----
    def _tenant_bucket(self, tenant: str) -> Dict[str, int]:
        return self.per_tenant.setdefault(
            tenant,
            {
                "submitted": 0, "rejected": 0, "rejected_slo": 0,
                "completed": 0, "failed": 0, "preempted": 0, "tokens": 0,
            },
        )

    def record_tenant_submit(self, tenant: str) -> None:
        self._tenant_bucket(tenant)["submitted"] += 1

    def record_tenant_reject(self, tenant: str, slo: bool = False) -> None:
        bucket = self._tenant_bucket(tenant)
        bucket["submitted"] += 1
        bucket["rejected"] += 1
        if slo:
            # SLO-unsatisfiable at submit time — refused up front
            # instead of being left to time out in-queue.
            bucket["rejected_slo"] += 1

    def record_tenant_failure(self, tenant: str) -> None:
        self._tenant_bucket(tenant)["failed"] += 1

    def record_tenant_preemption(self, tenant: str) -> None:
        self._tenant_bucket(tenant)["preempted"] += 1

    def record_token_latencies(
        self, tenant: str, ttft_s: float, tpot_s: float, tokens: int
    ) -> None:
        """A finished request's token-level serving latencies: time to
        first token, mean time per subsequent output token, and the
        token count (for tenant throughput accounting)."""
        self.ttft.add(ttft_s)
        self.tpot.add(tpot_s)
        bucket = self._tenant_bucket(tenant)
        bucket["completed"] += 1
        bucket["tokens"] += tokens

    # -- reporting ----------------------------------------------------------
    @property
    def mean_batch(self) -> float:
        if not self.flushes:
            return 0.0
        total = sum(size * n for size, n in self.batch_sizes.items())
        return total / self.flushes

    def throughput(self, elapsed_s: float) -> float:
        """Completed requests per simulated second."""
        if elapsed_s <= 0:
            return 0.0
        return self.completed / elapsed_s

    def to_dict(
        self, elapsed_s: float = 0.0, pool_stats: Optional[Dict] = None
    ) -> Dict:
        """JSON-safe snapshot for ``--json`` dumps and reports."""
        payload = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "flushes": self.flushes,
            "mean_batch": self.mean_batch,
            "batch_histogram": {
                str(k): v for k, v in sorted(self.batch_sizes.items())
            },
            "elapsed_s": elapsed_s,
            "throughput_rps": self.throughput(elapsed_s),
            "latency_ms": self.latency.to_dict(scale=1e3),
            "queue_wait_ms": self.queue_wait.to_dict(scale=1e3),
            "ttft_ms": self.ttft.to_dict(scale=1e3),
            "tpot_ms": self.tpot.to_dict(scale=1e3),
            "per_tenant": {
                name: dict(counts)
                for name, counts in sorted(self.per_tenant.items())
            },
            "per_workload": {
                name: dict(
                    counts,
                    latency_ms=self._per_workload_latency[name].to_dict(1e3),
                )
                if name in self._per_workload_latency
                else dict(counts)
                for name, counts in sorted(self.per_workload.items())
            },
        }
        if pool_stats is not None:
            payload["pool"] = dict(pool_stats)
        return payload
