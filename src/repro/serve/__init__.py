"""``repro.serve`` — async inference serving over compiled PIM programs.

The subsystem that turns the compile stack into a request/response
service: a :class:`Server` admits :class:`Request` objects, groups them
by compiled-program identity under a deterministic virtual clock
(:class:`DynamicBatcher`), dispatches each flush through a resident
:class:`ExecutablePool` as one stacked ``run_batch``, and aggregates
simulated latency/throughput telemetry (:class:`ServerMetrics`).

Quick tour::

    from repro.serve import ExecutablePool, Request, Server
    from repro.workloads import mtv

    wl = mtv(512, 512)
    with Server(ExecutablePool(capacity=4), max_batch_size=16) as srv:
        tickets = srv.submit_many(
            [Request(wl, wl.random_inputs(seed=i)) for i in range(100)]
        )
        srv.drain()
        print(srv.metrics_dict()["latency_ms"]["p99"])

Everything is deterministic for a given traffic trace: batching
decisions consume only virtual-clock ticks, latencies come from the
targets' simulated performance models, and ``run_batch`` outputs are
bit-for-bit identical to individual ``run()`` calls at any thread count.
"""

from .metrics import METRICS_SCHEMA_VERSION, LatencyStats, ServerMetrics
from .pool import ExecutablePool
from .request import Request, Response, Ticket
from .scheduler import DynamicBatcher, PendingRequest
from .server import ServeError, Server, SyncClient
from .traffic import (
    MixEntry,
    TraceEvent,
    generate_trace,
    gptj_serving_mix,
    replay_trace,
)

__all__ = [
    "Request",
    "Response",
    "Ticket",
    "Server",
    "SyncClient",
    "ServeError",
    "DynamicBatcher",
    "PendingRequest",
    "ExecutablePool",
    "LatencyStats",
    "ServerMetrics",
    "METRICS_SCHEMA_VERSION",
    "MixEntry",
    "TraceEvent",
    "generate_trace",
    "gptj_serving_mix",
    "replay_trace",
]
