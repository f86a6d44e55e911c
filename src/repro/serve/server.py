"""The serving front end: admission, batching, dispatch, accounting.

:class:`Server` is a discrete-event model of one PIM inference server
driven by a deterministic virtual clock:

* **time** — ``tick()`` advances the arrival clock in fixed
  :data:`TICK_S` steps; batching decisions consume only tick counts
  (never wall time), execution durations come from the targets'
  simulated/analytic performance models.  The same traffic trace
  therefore produces bit-identical batches, responses and metrics on
  any machine and at any host thread count.
* **admission** — a bounded pending queue; requests beyond
  ``queue_limit``, and requests without inputs (the server always
  executes), are rejected at submit time and counted per workload.
* **batching** — pending requests group by compiled-program identity
  and flush on max-batch-size or max-wait (see
  :class:`~repro.serve.scheduler.DynamicBatcher`).
* **dispatch** — a flush compiles-or-reuses its executable through the
  :class:`~repro.serve.pool.ExecutablePool` and runs the whole batch
  as one ``Executable.run_batch`` — on the simulator, one vector call
  over the flush's stacked requests, with threads only for flushes big
  enough to be cut into several jobs (:meth:`repro.target.Executor.jobs`)
  — so outputs are bit-for-bit what individual ``run()`` calls would
  produce.
* **failure isolation** — a flush that raises (bad input names, a
  target that cannot execute, an invalid compile) fails only its own
  group: those tickets turn ``failed`` with the error recorded, no
  time is charged to the simulated device, and serving continues.
* **device model** — flushes execute serially on the simulated device:
  a flush starts at ``max(now, busy_until)`` and occupies it for the
  stacked grid's modeled duration
  (:meth:`~repro.upmem.system.PerformanceModel.flush_lines`):
  dispatch+launch overhead is paid once per flush, kernels run
  concurrently across idle DPU-group replicas of the program, each
  round of replicas moves its requests' tensors in one rank-parallel
  push per direction, host statements run per request, and
  constant/weight transfer is charged only when the pool (re)loads the
  program — the paper's "constant tensors transferred once" §5.4.  The
  ``flush`` span on the ``serve.device`` track carries those lines.

After a flush the server drops its reference to each request's input
arrays, so serving long traces holds only pending inputs plus outputs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import current_tracer
from ..target import UpmemExecutable
from ..upmem.system import FlushLines, PerformanceModel
from ..workloads import Workload
from .metrics import ServerMetrics
from .pool import ExecutablePool
from .request import Request, Response, Ticket
from .scheduler import DynamicBatcher, PendingRequest

__all__ = ["Server", "SyncClient", "ServeError"]

#: Per-flush host-side cost (request handling, command assembly, rank
#: broadcast setup) — the overhead dynamic batching exists to amortize;
#: see :meth:`Server._batch_lines` for the full model.  A cluster
#: worker's decode iteration pays it too (``repro.cluster``).
DISPATCH_OVERHEAD_S = 1e-4
#: Simulated seconds per arrival-clock tick.
TICK_S = 1e-4


class ServeError(RuntimeError):
    """A request could not be served (rejected or unservable)."""


def _workload_name(request: Request) -> str:
    """The metrics-bucket name of a request's workload — one rule shared
    by rejection, completion and failure accounting.  A request whose
    workload is no :class:`~repro.workloads.Workload` (admission rejects
    it) buckets under the type's name."""
    workload = request.workload
    if isinstance(workload, Workload):
        return workload.name
    return type(workload).__name__


class Server:
    """Async-style inference server over compiled PIM executables."""

    def __init__(
        self,
        pool: Optional[ExecutablePool] = None,
        max_batch_size: int = 16,
        max_wait_ticks: int = 4,
        queue_limit: Optional[int] = 64,
    ) -> None:
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        # `pool or ...` would discard a caller's *empty* pool (len 0 is
        # falsy), silently serving from a default one.
        self.pool = pool if pool is not None else ExecutablePool()
        self.batcher = DynamicBatcher(max_batch_size, max_wait_ticks)
        self.metrics = ServerMetrics()
        self.queue_limit = queue_limit
        self._tick = 0
        self._now = 0.0  # arrival clock: _tick * TICK_S
        self._busy_until = 0.0  # simulated device availability
        self._seq = 0
        #: (batch key, batch size) -> flush lines.  Keyed by program
        #: identity (not ``id(exe)``): an evicted-and-recompiled program
        #: must never collide with a recycled object address, and
        #: identical keys derive identical costs by construction.
        self._lines_cache: Dict[Tuple[Tuple, int], FlushLines] = {}
        #: Keys whose constant-input (weight) staging transfer has been
        #: incurred by a pool load but not yet charged to a *successful*
        #: flush.  A loading flush that fails leaves the program
        #: resident with its staging bill outstanding; the next
        #: successful flush pays it (otherwise the charge would be lost
        #: and later latencies understated).
        self._unpaid_staging: set = set()
        self._closed = False

    # -- clocks -------------------------------------------------------------
    @property
    def current_tick(self) -> int:
        return self._tick

    @property
    def elapsed(self) -> float:
        """Simulated seconds the trace has spanned so far (arrival clock
        or device busy time, whichever is further along)."""
        return max(self._now, self._busy_until)

    def tick(self, n: int = 1) -> List[Response]:
        """Advance the virtual clock ``n`` ticks, flushing aged groups.

        Returns the responses completed by those flushes.
        """
        self._check_open()
        responses: List[Response] = []
        for _ in range(n):
            self._tick += 1
            self._now = self._tick * TICK_S
            for key in self.batcher.due(self._tick):
                responses.extend(self._flush(key))
        return responses

    # -- submission ---------------------------------------------------------
    def submit(self, request: Request) -> Ticket:
        """Admit one request; may trigger an immediate size-based flush.

        Returns a :class:`Ticket`: ``rejected`` when the pending queue
        is full, otherwise ``queued`` (and ``done`` with a response as
        soon as its group flushes).  Anything but a :class:`Request` is a
        ``TypeError``.
        """
        if not isinstance(request, Request):
            raise TypeError(
                f"Server.submit takes a Request, not {type(request).__name__}"
            )
        self._check_open()
        tracer = current_tracer()
        name = _workload_name(request)
        if request.inputs is None:
            # Catch input-less requests at admission — most commonly a
            # Request object resubmitted after being served (the server
            # nulls inputs on completion).  Failing here keeps the
            # mistake from blast-failing whatever group it would join.
            return self._reject(
                request, name, "no-inputs",
                "request has no inputs (already served once?);"
                " the server needs an inputs dict",
            )
        if (
            self.queue_limit is not None
            and self.batcher.pending >= self.queue_limit
        ):
            return self._reject(
                request, name, "queue-full",
                f"pending queue full ({self.queue_limit} requests)",
            )
        try:
            key = self.pool.key_for(
                request.workload, request.target, request.params
            )
        except Exception as exc:
            # An unresolvable target (unknown kind, ...) is unservable:
            # reject at admission rather than failing a whole group.
            return self._reject(
                request, name, "unservable", f"{type(exc).__name__}: {exc}"
            )
        request.request_id = self._seq
        ticket = Ticket(request, batch_key=key)
        entry = PendingRequest(self._seq, ticket, self._tick, self._now)
        self._seq += 1
        self.metrics.record_submit(name)
        if tracer.enabled:
            tracer.instant(
                "admit", track="serve.requests", cat="serve",
                args={
                    "rid": request.request_id,
                    "workload": name,
                    "key": self.pool.key_label(key),
                },
                ts_s=self._now,
            )
        if self.batcher.add(key, entry):
            self._flush(key)
        return ticket

    def _reject(
        self, request: Request, name: str, reason: str, message: str
    ) -> Ticket:
        """Count, trace and return the rejected ticket of one request."""
        self.metrics.record_reject(name)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "reject", track="serve.requests", cat="serve",
                args={"workload": name, "reason": reason},
                ts_s=self._now,
            )
        return Ticket(request, status="rejected", reject_reason=message)

    def submit_many(self, requests: Sequence[Request]) -> List[Ticket]:
        """Submit in order; one ticket per request."""
        return [self.submit(request) for request in requests]

    def drain(self) -> List[Response]:
        """Flush every pending group (oldest first) and return the
        responses those flushes produced.  An empty queue returns ``[]``
        without compiling anything."""
        self._check_open()
        responses: List[Response] = []
        for key in self.batcher.drain_keys():
            responses.extend(self._flush(key))
        return responses

    def flush_ticket(self, ticket: Ticket) -> Optional[Response]:
        """Force the group containing ``ticket``'s request to flush now
        (the synchronous-client path).  Returns its response."""
        self._check_open()
        if ticket.status == "queued" and ticket.batch_key is not None:
            # The admission-time key, not a recomputation: if the
            # workload mutated since submit, a fresh key would miss the
            # group the request is actually queued under.
            self._flush(ticket.batch_key)
        return ticket.response

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop serving: later calls raise :class:`ServeError` (pending
        requests stay queued; ``drain()`` before closing to complete
        them)."""
        self._closed = True

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError("server is closed")

    # -- dispatch -----------------------------------------------------------
    def _flush(self, key: Tuple) -> List[Response]:
        group = self.batcher.take(key)
        first = group[0].ticket.request
        try:
            exe, loaded = self.pool.get(
                first.workload, first.target, first.params, key=key
            )
            if loaded:
                self._unpaid_staging.add(key)
            lines = self._batch_lines(
                exe, len(group), key in self._unpaid_staging, key
            )
            outputs = exe.run_batch(
                [entry.ticket.request.inputs for entry in group]
            )
        except Exception as exc:
            # Isolate the failure to this group: its tickets fail
            # visibly (bad input names, a target that cannot execute,
            # an invalid compile), nothing is charged to the simulated
            # device, and every other pending/ future request is
            # unaffected.
            self._fail_group(group, exc)
            return []
        self._unpaid_staging.discard(key)  # staging charge now paid
        duration = sum(lines.values())
        start = max(self._now, self._busy_until)
        finish = start + duration
        self._busy_until = finish
        self.metrics.record_flush(len(group))
        tracer = current_tracer()
        if tracer.enabled:
            # Device occupancy goes on its own track: flush starts jump
            # to the device clock (always >= the previous finish), so the
            # lane stays monotonic even while admits trail on the
            # arrival-clock "serve.requests" track.
            tracer.timed_span(
                f"flush {_workload_name(first)}",
                track="serve.device",
                cat="serve",
                dur_s=duration,
                ts_s=start,
                args={
                    "batch": len(group),
                    "key": self.pool.key_label(key),
                    "loaded": loaded,
                    "rids": [entry.ticket.request.request_id for entry in group],
                    **lines,
                },
            )
        responses: List[Response] = []
        for entry, outs in zip(group, outputs):
            request = entry.ticket.request
            response = Response(
                request_id=request.request_id,
                workload=_workload_name(request),
                outputs=outs,
                latency_s=finish - entry.arrival_s,
                queue_s=start - entry.arrival_s,
                execute_s=duration,
                batch_size=len(group),
                arrival_tick=entry.arrival_tick,
                finish_s=finish,
            )
            entry.ticket.response = response
            entry.ticket.status = "done"
            request.inputs = None  # release input arrays once served
            self.metrics.record_completion(
                response.workload, response.latency_s, response.queue_s
            )
            if tracer.enabled:
                tracer.instant(
                    "respond", track="serve.device", cat="serve",
                    args={
                        "rid": response.request_id,
                        "latency_s": response.latency_s,
                    },
                    ts_s=finish,
                )
            responses.append(response)
        return responses

    def _fail_group(self, group: Sequence[Any], exc: Exception) -> None:
        reason = f"{type(exc).__name__}: {exc}"
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "flush.fail", track="serve.device", cat="serve",
                args={"batch": len(group), "reason": reason},
            )
        for entry in group:
            ticket = entry.ticket
            ticket.status = "failed"
            ticket.error = reason
            # Unlike served requests, failed ones keep their inputs: an
            # innocent request caught in a poisoned group must stay
            # resubmittable as-is.
            self.metrics.record_failure(_workload_name(ticket.request))

    # -- timing model -------------------------------------------------------
    def _batch_lines(
        self, exe: Any, batch_size: int, staging_due: bool, key: Tuple
    ) -> Dict[str, float]:
        """Simulated device occupancy of one flush, line by line (the
        flush's duration is their sum).

        The server's dispatch overhead is paid once a flush.  An UPMEM
        program's lines are :meth:`PerformanceModel.flush_lines` — the
        batch as the stacked grid ``run_batch`` runs: one launch,
        kernels once per round of idle DPU-group replicas, one
        rank-parallel push per direction a round, host statements per
        request.  ``staging`` — the constant inputs' placement — is
        charged on the first successful flush after the pool (re)loaded
        the program (``staging_due``): the paper's "constant tensors
        transferred once" (§5.4).  A roofline has no grid, so only its
        launch amortizes.
        """
        lines = self._lines_cache.get((key, batch_size))
        if lines is None:
            latency = exe.profile().latency
            if isinstance(exe, UpmemExecutable):
                lines = PerformanceModel(exe.target.config).flush_lines(
                    exe.lowered, batch_size, latency
                )
            else:
                lines = FlushLines(
                    launch=latency.launch,
                    kernel=batch_size * latency.kernel,
                    h2d=batch_size * latency.h2d,
                    d2h=batch_size * latency.d2h,
                    host=batch_size * latency.host,
                    staging=0.0,
                )
            self._lines_cache[(key, batch_size)] = lines
        return {
            "dispatch": DISPATCH_OVERHEAD_S,
            "launch": lines.launch,
            "kernel": lines.kernel,
            "h2d": lines.h2d,
            "d2h": lines.d2h,
            "host": lines.host,
            "staging": lines.staging if staging_due else 0.0,
        }

    # -- reporting ----------------------------------------------------------
    def metrics_dict(self) -> Dict:
        """Metrics + pool stats snapshot (the ``--json`` payload)."""
        return self.metrics.to_dict(
            elapsed_s=self.elapsed, pool_stats=self.pool.stats()
        )


class SyncClient:
    """Blocking in-process client: submit one request, flush, return.

    Batching still applies — a sync call rides with (and completes) any
    compatible requests already pending for the same program.
    """

    def __init__(self, server: Server) -> None:
        self.server = server

    def infer(
        self,
        workload: Any,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        target: Any = "upmem",
        params: Optional[Dict[str, int]] = None,
        **named: np.ndarray,
    ) -> Response:
        data = dict(inputs or {})
        data.update(named)
        ticket = self.server.submit(
            Request(workload=workload, inputs=data, target=target, params=params)
        )
        if ticket.rejected:
            raise ServeError(f"request rejected: {ticket.reject_reason}")
        response = self.server.flush_ticket(ticket)
        if ticket.failed:
            raise ServeError(f"request failed: {ticket.error}")
        assert response is not None  # flush_ticket completes queued tickets
        return response
