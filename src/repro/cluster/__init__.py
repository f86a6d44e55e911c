"""repro.cluster — continuous batching on a fault-tolerant,
multi-tenant serving cluster.

The layer above :mod:`repro.serve` and :mod:`repro.decode`: sessions
(:mod:`~repro.cluster.session`) carry per-request token position
through iteration-level batches composed by the SLO-aware
:class:`~repro.cluster.batching.ContinuousScheduler`; N simulated
:class:`~repro.cluster.worker.Worker`\\ s over one shared
:class:`~repro.serve.pool.ExecutablePool` sit behind a least-loaded /
session-affinity :class:`~repro.cluster.router.Router`; a heartbeat
:class:`~repro.cluster.supervisor.Supervisor` and seeded
:class:`~repro.cluster.faults.FaultInjector` exercise failure and
recovery (orphaned sessions replay, digest-verified, on surviving
workers); :mod:`~repro.cluster.traffic` generates multi-tenant
diurnal + bursty traces with quotas and SLO classes.  The whole
simulation runs on the deterministic virtual clock: same seed — same
fault schedule, same batch compositions, same recovery order, same
token digests, at any host thread count.

:class:`ClusterConfig` is the one configuration object: its init
fields are the knobs some caller sets (``n_workers``, ``mode``,
``max_batch``, ``queue_cap``, ``page_tokens``, ``max_pages``,
``max_ticks``); everything else (tick length, model, engine seed,
dispatch overhead, replica groups, supervisor thresholds, backoff) is a
class constant read the same way.  Workers read it directly.

Quick start::

    from repro.cluster import (
        Cluster, ClusterConfig, default_tenants,
        generate_cluster_trace, sessions_from_trace,
    )

    tenants = default_tenants()
    trace = generate_cluster_trace(24, tenants, seed=7)
    cluster = Cluster(ClusterConfig(n_workers=2, mode="continuous"),
                      tenants=tenants)
    result = cluster.run(sessions_from_trace(trace, tenants))
    print(result.summary()["p99_ttft_ms"])
"""

from .batching import ContinuousScheduler
from .cluster import CLUSTER_SIM, Cluster, ClusterConfig, ClusterResult
from .faults import KILL, STALL, FaultEvent, FaultInjector
from .router import Router
from .session import (
    COMPLETED,
    QUEUED,
    REJECTED,
    RUNNING,
    Session,
    token_digest,
)
from .supervisor import DEAD, DEGRADED, HEALTHY, RECOVERING, Supervisor
from .traffic import (
    ClusterRequest,
    TenantSpec,
    default_tenants,
    generate_cluster_trace,
    sessions_from_trace,
)
from .worker import TokenEvent, Worker, WorkerIteration

__all__ = [
    "Session", "token_digest",
    "QUEUED", "RUNNING", "COMPLETED", "REJECTED",
    "TenantSpec", "ClusterRequest",
    "default_tenants", "generate_cluster_trace", "sessions_from_trace",
    "FaultEvent", "FaultInjector", "KILL", "STALL",
    "Supervisor", "HEALTHY", "DEGRADED", "DEAD", "RECOVERING",
    "Router",
    "Worker", "WorkerIteration", "TokenEvent",
    "ContinuousScheduler",
    "Cluster", "ClusterConfig", "ClusterResult", "CLUSTER_SIM",
]
