"""Multi-tenant cluster traffic: diurnal + bursty arrivals, mixed
model sizes, per-tenant SLOs and quotas.

The serve-layer generator (:mod:`repro.serve.traffic`) draws kernel
requests on a tick grid; cluster traffic models *users*: tenants with
weights, admission quotas and SLO classes, arriving by an
inhomogeneous Poisson process — a diurnal sinusoid modulates the rate
(the day/night cycle scaled onto the trace horizon) and a seeded
fraction of arrivals brings a burst of simultaneous sessions (the
thundering-herd shape continuous batching absorbs and whole-request
flushing does not).  Everything derives from one rng seed; two calls
with the same arguments produce byte-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .session import Session

__all__ = [
    "TenantSpec", "ClusterRequest", "default_tenants",
    "generate_cluster_trace", "sessions_from_trace",
]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic share, admission quota and SLO class."""

    name: str
    #: Relative arrival weight (fair-share fraction of the trace).
    weight: float = 1.0
    #: Max sessions this tenant may have running cluster-wide at once;
    #: excess queued arrivals are throttled (held, not rejected).
    quota: int = 4
    ttft_slo_s: float = 1.0
    tpot_slo_s: float = 0.5


@dataclass(frozen=True)
class ClusterRequest:
    """One arrival in a cluster trace (pre-SLO: tenant spec applies
    deadlines when the trace is materialized into sessions)."""

    arrival_s: float
    tenant: str
    session_id: str
    prompt_tokens: int
    decode_tokens: int
    layers: int


#: The diurnal sinusoid: relative swing of the arrival rate and its
#: period, the day/night cycle scaled onto a trace of a few seconds.
_DIURNAL_AMPLITUDE = 0.5
_DIURNAL_PERIOD_S = 4.0
#: Inclusive range a session's prompt length is drawn from.
_PROMPT_TOKENS = (2, 6)
#: ``(decoder layers, weight)`` of the model sizes sessions ask for.
_MODEL_LAYERS = ((2, 0.75), (3, 0.25))


def default_tenants() -> List[TenantSpec]:
    """A small heterogeneous tenant population: one latency-sensitive
    interactive tenant, one throughput batch tenant, background fill."""
    return [
        TenantSpec("interactive", weight=2.0, quota=4,
                   ttft_slo_s=0.5, tpot_slo_s=0.25),
        TenantSpec("batch", weight=1.0, quota=6,
                   ttft_slo_s=4.0, tpot_slo_s=2.0),
        TenantSpec("background", weight=0.5, quota=2,
                   ttft_slo_s=8.0, tpot_slo_s=4.0),
    ]


def generate_cluster_trace(
    n_requests: int,
    tenants: Sequence[TenantSpec],
    seed: int = 0,
    mean_interarrival_s: float = 0.05,
    burst_prob: float = 0.15,
    burst_size: int = 3,
    decode_tokens: Tuple[int, int] = (4, 12),
) -> List[ClusterRequest]:
    """Seeded multi-tenant arrival trace.

    Arrivals follow an inhomogeneous Poisson process: the instantaneous
    rate is ``1/mean_interarrival_s`` scaled by a diurnal sinusoid
    (``1 + 0.5 * sin(2*pi*t / 4 s)``), sampled by stepping exponential
    inter-arrivals at the local rate.  Each arrival instant carries one
    session, or — with probability ``burst_prob`` — ``burst_size``
    simultaneous sessions.  Tenant, prompt length (2-6 tokens), decode
    length and model size (``layers``: 2 for three sessions in four, 3
    for the rest) are drawn independently per session; tenant weights
    need not be normalized.
    """
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if not tenants:
        raise ValueError("need at least one TenantSpec")
    rng = np.random.default_rng(seed)
    names = [t.name for t in tenants]
    weights = np.array([t.weight for t in tenants], dtype=np.float64)
    weights = weights / weights.sum()
    layer_values = [int(l) for l, _ in _MODEL_LAYERS]
    layer_weights = np.array([w for _, w in _MODEL_LAYERS], dtype=np.float64)
    layer_weights = layer_weights / layer_weights.sum()

    events: List[ClusterRequest] = []
    t = 0.0
    base_rate = 1.0 / mean_interarrival_s
    while len(events) < n_requests:
        rate = base_rate * (
            1.0 + _DIURNAL_AMPLITUDE
            * math.sin(2.0 * math.pi * t / _DIURNAL_PERIOD_S)
        )
        t += float(rng.exponential(1.0 / rate))
        burst = burst_size if float(rng.random()) < burst_prob else 1
        for _ in range(min(burst, n_requests - len(events))):
            i = len(events)
            events.append(
                ClusterRequest(
                    arrival_s=t,
                    tenant=names[int(rng.choice(len(names), p=weights))],
                    session_id=f"s{i:04d}",
                    prompt_tokens=int(
                        rng.integers(_PROMPT_TOKENS[0], _PROMPT_TOKENS[1] + 1)
                    ),
                    decode_tokens=int(
                        rng.integers(decode_tokens[0], decode_tokens[1] + 1)
                    ),
                    layers=layer_values[
                        int(rng.choice(len(layer_values), p=layer_weights))
                    ],
                )
            )
    return events


def sessions_from_trace(
    trace: Sequence[ClusterRequest],
    tenants: Sequence[TenantSpec],
) -> List[Session]:
    """Materialize a trace into sessions, stamping each tenant's SLO
    class onto its requests."""
    by_name: Dict[str, TenantSpec] = {t.name: t for t in tenants}
    sessions = []
    for req in trace:
        spec = by_name[req.tenant]
        sessions.append(
            Session(
                session_id=req.session_id,
                tenant=req.tenant,
                arrival_s=req.arrival_s,
                prompt_tokens=req.prompt_tokens,
                decode_tokens=req.decode_tokens,
                layers=req.layers,
                ttft_deadline_s=spec.ttft_slo_s,
                tpot_deadline_s=spec.tpot_slo_s,
            )
        )
    return sessions
