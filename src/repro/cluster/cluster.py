"""The cluster: tick loop tying sessions, workers, supervision and
fault injection into one deterministic simulation.

One :class:`Cluster` owns N :class:`~repro.cluster.worker.Worker`\\ s
over a single shared :class:`~repro.serve.pool.ExecutablePool`, a
:class:`~repro.cluster.router.Router`, a
:class:`~repro.cluster.supervisor.Supervisor`, a
:class:`~repro.cluster.batching.ContinuousScheduler` and (optionally) a
:class:`~repro.cluster.faults.FaultInjector`.  :meth:`Cluster.run`
replays a multi-tenant trace on the virtual clock; each tick, in a
fixed order:

1. due faults fire (kill/stall workers),
2. heartbeats are observed, the supervisor transitions states; a
   worker declared dead is fenced and its residents orphaned back to
   the queue (replay-on-readmission restores — and *verifies* — their
   streams),
3. due arrivals are admitted (or rejected: queue cap, or an SLO
   deadline unsatisfiable at submit time — refused up front instead of
   timing out in-queue),
4. queued sessions are placed fair-share round-robin across tenants
   (quota-throttled, retry/backoff-gated), with preemption-by-eviction
   when a KV pool is exhausted,
5. every free worker runs one iteration composed by the scheduler
   (``mode="continuous"``) or over its sealed batch (``mode="whole"``,
   the flushing baseline: a worker admits only when idle and seals
   until every session of the batch completes),
6. decoded tokens retire sessions individually, feeding TTFT/TPOT and
   per-tenant metrics.

Every decision reads only seeded data and the virtual clock, so a run
is bit-for-bit reproducible at any host thread count; with the same
seed the fault schedule, batch compositions, recovery order and final
token digests are identical run over run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import current_tracer
from ..serve.metrics import ServerMetrics
from ..serve.pool import ExecutablePool
from ..serve.server import DISPATCH_OVERHEAD_S
from ..workloads.gptj import GPTJConfig
from .batching import ContinuousScheduler
from .faults import KILL, STALL, FaultInjector
from .router import Router
from .session import COMPLETED, QUEUED, REJECTED, RUNNING, Session
from .supervisor import DEAD, RECOVERING, Supervisor
from .traffic import TenantSpec
from .worker import Worker, WorkerIteration

__all__ = ["CLUSTER_SIM", "ClusterConfig", "ClusterResult", "Cluster"]

#: Reduced model for cluster studies: cluster experiments decode
#: hundreds of tokens across many sessions, so they run the functional
#: simulator at tiny dimensions (the *timing* model scales separately;
#: determinism and scheduling behavior are dimension-independent).
CLUSTER_SIM = GPTJConfig("gptj-cluster-sim", n_heads=2, d_model=32, head_dim=16)


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one cluster simulation (all deterministic inputs).

    The annotated fields are the ones some caller sets; the rest of the
    simulation's parameters are the class constants below them — read
    the same way (``config.tick_s``), fixed for every cluster.
    """

    n_workers: int = 2
    #: "continuous" (iteration-level batching) or "whole"
    #: (whole-request flushing — the PR-4-era baseline behavior).
    mode: str = "continuous"
    max_batch: int = 8
    queue_cap: int = 64
    page_tokens: int = 4
    #: KV page pool per engine — the resource preemption fights over.
    max_pages: int = 48
    #: Hard stop for the tick loop (a stuck simulation fails loudly).
    max_ticks: int = 100_000

    #: Virtual seconds per control tick (arrival/heartbeat/placement
    #: granularity; device time is continuous on the same clock).
    tick_s = 0.02
    model = CLUSTER_SIM
    #: Every worker builds its engines from this seed: model weights are
    #: identical fleet-wide, which replay-on-recovery depends on.
    engine_seed = 0
    #: Idle DPU groups an iteration's kernels replicate across.
    replica_groups = 4
    check_references = False
    #: Supervisor thresholds, in missed / answered heartbeats.
    degraded_after = 2
    dead_after = 4
    recovery_ticks = 3
    backoff_base_s = 0.04

    def __post_init__(self) -> None:
        if self.mode not in ("continuous", "whole"):
            raise ValueError(
                f'mode must be "continuous" or "whole", got {self.mode!r}'
            )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass
class ClusterResult:
    """Outcome of one trace replay."""

    config: ClusterConfig
    sessions: List[Session]
    metrics: ServerMetrics
    makespan_s: float = 0.0
    ticks: int = 0
    iterations: int = 0
    #: Mean over iteration samples of (batch size / max_batch).
    occupancy_samples: List[int] = field(default_factory=list)
    kv_samples: List[float] = field(default_factory=list)
    router_stats: Dict = field(default_factory=dict)
    pool_stats: Dict = field(default_factory=dict)
    supervisor_transitions: List[Tuple[int, int, str, str]] = field(
        default_factory=list
    )
    faults_fired: List = field(default_factory=list)

    # -- aggregates ----------------------------------------------------------
    @property
    def completed(self) -> List[Session]:
        return [s for s in self.sessions if s.status == COMPLETED]

    @property
    def tokens_decoded(self) -> int:
        return sum(s.tokens_done for s in self.completed)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.tokens_decoded / self.makespan_s

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return sum(self.occupancy_samples) / len(self.occupancy_samples)

    @property
    def mean_kv_utilization(self) -> float:
        if not self.kv_samples:
            return 0.0
        return sum(self.kv_samples) / len(self.kv_samples)

    @property
    def replays(self) -> int:
        return sum(s.replays for s in self.sessions)

    @property
    def replay_ok(self) -> bool:
        return all(s.replay_ok for s in self.sessions)

    def summary(self) -> Dict:
        metrics = self.metrics.to_dict(elapsed_s=self.makespan_s)
        return {
            "mode": self.config.mode,
            "n_workers": self.config.n_workers,
            "completed": len(self.completed),
            "rejected": sum(
                1 for s in self.sessions if s.status == REJECTED
            ),
            "tokens": self.tokens_decoded,
            "makespan_s": self.makespan_s,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "p99_ttft_ms": metrics["ttft_ms"]["p99"],
            "p99_tpot_ms": metrics["tpot_ms"]["p99"],
            "mean_batch_occupancy": self.mean_occupancy,
            "kv_utilization": self.mean_kv_utilization,
            "iterations": self.iterations,
            "preemptions": sum(s.preemptions for s in self.sessions),
            "replays": self.replays,
            "replay_ok": self.replay_ok,
            "faults": len(self.faults_fired),
            "router": self.router_stats,
            "metrics": metrics,
        }


class Cluster:
    """N simulated workers behind a router, under supervision."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        tenants: Optional[Sequence[TenantSpec]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.tenants = list(tenants or [])
        self.faults = faults
        self.pool = ExecutablePool(capacity=128)
        self.workers = [
            Worker(i, self.config, self.pool)
            for i in range(self.config.n_workers)
        ]
        self.router = Router()
        self.supervisor = Supervisor(
            self.config.n_workers,
            degraded_after=self.config.degraded_after,
            dead_after=self.config.dead_after,
            recovery_ticks=self.config.recovery_ticks,
        )
        self.scheduler = ContinuousScheduler(max_batch=self.config.max_batch)
        self.metrics = ServerMetrics()
        #: The admission queue and the orphans awaiting detection, per
        #: dead worker; ``None`` until :meth:`run` starts.
        self._queue: Optional[List[Session]] = None
        self._orphans: Dict[int, List[Session]] = {}

    # -- admission -----------------------------------------------------------
    def _submit(
        self, session: Session, queue: List[Session], now_s: float
    ) -> None:
        workload = f"L{session.layers}"
        tracer = current_tracer()
        if session.ttft_deadline_s < DISPATCH_OVERHEAD_S:
            # SLO unsatisfiable at submit time: even an empty cluster
            # pays one dispatch before the first token.  Refuse now —
            # with a per-tenant count — rather than let it time out.
            session.status = REJECTED
            self.metrics.record_reject(workload)
            self.metrics.record_tenant_reject(session.tenant, slo=True)
            tracer.instant(
                "reject slo-unsatisfiable", track="cluster.control",
                cat="cluster", ts_s=now_s,
                args={"session": session.session_id, "tenant": session.tenant},
            )
            return
        demand = session.layers * -(
            -(session.prompt_tokens + session.decode_tokens)
            // self.config.page_tokens
        )
        if demand > self.config.max_pages:
            # Capacity-infeasible: the session's own KV footprint at
            # full length exceeds a whole worker's page pool, so no
            # amount of preemption could ever let it finish.  Refuse
            # now rather than wedge a worker mid-decode.
            session.status = REJECTED
            self.metrics.record_reject(workload)
            self.metrics.record_tenant_reject(session.tenant, slo=False)
            tracer.instant(
                "reject capacity-infeasible", track="cluster.control",
                cat="cluster", ts_s=now_s,
                args={
                    "session": session.session_id,
                    "pages_needed": demand,
                    "max_pages": self.config.max_pages,
                },
            )
            return
        if len(queue) >= self.config.queue_cap:
            session.status = REJECTED
            self.metrics.record_reject(workload)
            self.metrics.record_tenant_reject(session.tenant, slo=False)
            tracer.instant(
                "reject queue-full", track="cluster.control",
                cat="cluster", ts_s=now_s,
                args={"session": session.session_id},
            )
            return
        self.metrics.record_submit(workload)
        self.metrics.record_tenant_submit(session.tenant)
        queue.append(session)

    def _quota(self, tenant: str) -> int:
        for spec in self.tenants:
            if spec.name == tenant:
                return spec.quota
        return 1 << 30  # unspecified tenants are unthrottled

    def _running_per_tenant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for worker in self.workers:
            for session in worker.residents.values():
                counts[session.tenant] = counts.get(session.tenant, 0) + 1
        return counts

    def _backoff(self, session: Session, now_s: float) -> None:
        session.retries += 1
        session.not_before_s = now_s + self.config.backoff_base_s * (
            2 ** (session.retries - 1)
        )

    def _try_place(self, session: Session, now_s: float) -> bool:
        worker = self.router.place(session, self.workers, self.supervisor)
        if worker is None:
            # Nobody has pages/headroom.  Preemption-by-eviction: the
            # least-loaded placeable worker may free pages by evicting
            # strictly-lower-priority residents of the same model size.
            candidates = [
                w for w in self.workers
                if self.supervisor.placeable(w.worker_id)
                and not w.killed and not w.sealed
            ]
            for cand in sorted(
                candidates,
                key=lambda w: (len(w.residents), w.busy_until_s, w.worker_id),
            ):
                evicted, ok = self.scheduler.evict_for(
                    cand, session, cand.pages_needed(session)
                )
                self._requeue_evicted(evicted, cand, now_s)
                if ok:
                    worker = cand
                    break
            if worker is None:
                self._backoff(session, now_s)
                return False
        self._admit(worker, session, now_s)
        return True

    def _admit(self, worker: Worker, session: Session, now_s: float) -> None:
        """Admit ``session`` on ``worker``: a replay's device seconds go
        on the worker's busy clock (and the trace), then it runs."""
        replay_s = worker.admit(session, now_s)
        if replay_s:
            worker.busy_until_s = (
                max(now_s, worker.busy_until_s) + replay_s
            )
            current_tracer().timed_span(
                f"replay {session.session_id}",
                track=f"cluster.w{worker.worker_id}",
                cat="cluster", dur_s=replay_s,
                ts_s=max(now_s, worker.busy_until_s - replay_s),
                args={
                    "tokens": session.tokens_done,
                    "replay_ok": session.replay_ok,
                },
            )
        session.status = RUNNING

    def _requeue_evicted(
        self, evicted: List[Session], worker: Worker, now_s: float
    ) -> None:
        for victim in evicted:
            victim.status = QUEUED
            victim.preemptions += 1
            self._backoff(victim, now_s)
            self._queue.append(victim)
            self.metrics.record_tenant_preemption(victim.tenant)
            current_tracer().instant(
                "preempt", track="cluster.control", cat="cluster",
                ts_s=now_s, args={
                    "session": victim.session_id,
                    "worker": worker.worker_id,
                },
            )

    def _preempt_wedged(self, worker: Worker, now_s: float) -> None:
        """Decode-time preemption-by-eviction.  The scheduler composed
        an *empty* iteration for a worker that still has residents:
        the KV pool is exhausted and every resident's next step crosses
        a page boundary.  Evict same-model residents lowest priority
        first until the highest-priority blocked session can step —
        victims re-queue (with backoff) for digest-verified replay, so
        the worker is guaranteed to make progress next iteration."""
        ranked = self.scheduler.by_priority(list(worker.residents.values()))
        head = ranked[0]
        engine = worker.engine(head.layers)
        need = engine.step_pages(head.sequence)
        evicted: List[Session] = []
        for victim in reversed(ranked):
            if engine.cache.free_pages >= need:
                break
            if victim is head or victim.layers != head.layers:
                continue
            worker.evict(victim)
            evicted.append(victim)
        self._requeue_evicted(evicted, worker, now_s)

    def _place_fair_share(self, now_s: float, tick: int) -> None:
        """Round-robin over tenants (rotated by tick so no tenant owns
        the head of line), one placement per tenant per pass, quotas
        and backoff gates applied."""
        if not self._queue:
            return
        if self.config.mode == "whole":
            # Whole-request flushing admits only batch-at-a-time to an
            # idle worker — never one by one into a running batch.
            self._fill_whole_batches(now_s)
            return
        running = self._running_per_tenant()
        tenant_names = sorted({s.tenant for s in self._queue})
        start = tick % len(tenant_names)
        rotation = tenant_names[start:] + tenant_names[:start]
        progress = True
        while progress and self._queue:
            progress = False
            for tenant in rotation:
                if running.get(tenant, 0) >= self._quota(tenant):
                    continue  # throttled at quota: fair-share hold
                eligible = [
                    s for s in self._queue
                    if s.tenant == tenant and s.not_before_s <= now_s
                ]
                if not eligible:
                    continue
                session = min(eligible, key=lambda s: s.priority())
                if self._try_place(session, now_s):
                    self._queue.remove(session)
                    running[tenant] = running.get(tenant, 0) + 1
                    progress = True

    def _fill_whole_batches(self, now_s: float) -> None:
        """Whole-request baseline: only an *idle* worker admits, it
        takes up to ``max_batch`` sessions at once, and it seals until
        the whole batch has completed."""
        for worker in self.workers:
            if (
                worker.sealed or worker.residents or worker.killed
                or not self.supervisor.placeable(worker.worker_id)
            ):
                continue
            running = self._running_per_tenant()
            eligible = [
                s for s in self._queue if s.not_before_s <= now_s
            ]
            batch = self.scheduler.by_priority(eligible)[
                : self.config.max_batch
            ]
            placed = 0
            for session in batch:
                if running.get(session.tenant, 0) >= self._quota(
                    session.tenant
                ):
                    continue
                if (
                    worker.free_pages(session.layers)
                    >= worker.pages_needed(session)
                ):
                    self._admit(worker, session, now_s)
                    self._queue.remove(session)
                    running[session.tenant] = (
                        running.get(session.tenant, 0) + 1
                    )
                    placed += 1
            if placed:
                worker.sealed = True

    # -- faults + supervision ------------------------------------------------
    def _apply_faults(self, now_s: float) -> List:
        if self.faults is None:
            return []
        fired = self.faults.fire(now_s)
        tracer = current_tracer()
        for event in fired:
            worker = self.workers[event.worker]
            if event.kind == KILL:
                orphans = worker.kill()
                # Orphans stay off-queue until the supervisor *detects*
                # the death (missed heartbeats) — see _observe.  Stash
                # them on the worker's fault record.
                self._orphans.setdefault(event.worker, []).extend(orphans)
            elif event.kind == STALL:
                worker.stall(now_s, event.duration_s)
            tracer.instant(
                f"fault {event.kind}", track="cluster.control",
                cat="cluster", ts_s=now_s,
                args={"worker": event.worker, "duration_s": event.duration_s},
            )
        return fired

    def _observe(self, now_s: float, tick: int) -> None:
        tracer = current_tracer()
        for worker in self.workers:
            before = self.supervisor.state[worker.worker_id]
            after = self.supervisor.observe(
                worker.worker_id, worker.alive(now_s), tick
            )
            if after == before:
                continue
            tracer.instant(
                f"worker {worker.worker_id} {before}->{after}",
                track="cluster.control", cat="cluster", ts_s=now_s,
                args={"worker": worker.worker_id},
            )
            if after == DEAD:
                # Fence: even a stalled-but-alive worker declared dead
                # must not resurrect with stale KV.
                orphans = worker.kill()
                orphans.extend(self._orphans.pop(worker.worker_id, []))
                for session in orphans:
                    session.status = QUEUED
                    session.worker = None
                    self._backoff(session, now_s)
                    self._queue.append(session)
                    self.metrics.record_tenant_failure(session.tenant)
                    tracer.instant(
                        "orphaned", track="cluster.control", cat="cluster",
                        ts_s=now_s, args={"session": session.session_id},
                    )
            elif after == RECOVERING:
                worker.reprovision(now_s)

    # -- completion ----------------------------------------------------------
    def _retire(
        self, iteration: WorkerIteration, worker: Worker
    ) -> None:
        for token in iteration.tokens:
            session = worker.residents[token.session_id]
            session.record_token(token.t_s, token.digest)
            if session.done:
                worker.evict(session)
                session.status = COMPLETED
                session.finish_s = token.t_s
                workload = f"L{session.layers}"
                self.metrics.record_completion(
                    workload,
                    latency_s=session.finish_s - session.arrival_s,
                    queue_s=(session.admitted_s or session.arrival_s)
                    - session.arrival_s,
                )
                self.metrics.record_token_latencies(
                    session.tenant,
                    ttft_s=session.ttft_s or 0.0,
                    tpot_s=session.tpot_s or 0.0,
                    tokens=session.decode_tokens,
                )
        if worker.sealed and not worker.residents:
            worker.sealed = False

    # -- the loop ------------------------------------------------------------
    def run(self, sessions: Sequence[Session]) -> ClusterResult:
        """Replay a materialized trace to completion.  A cluster's
        workers, metrics, router and fault schedule carry one run's
        state, so a second call raises :class:`RuntimeError`."""
        if self._queue is not None:
            raise RuntimeError("a Cluster replays one trace; build a new one")
        pending = sorted(
            sessions, key=lambda s: (s.arrival_s, s.session_id)
        )
        self._queue = []
        result = ClusterResult(
            config=self.config, sessions=list(pending), metrics=self.metrics
        )
        tracer = current_tracer()
        arrival_i = 0
        now_s = 0.0
        tick = 0
        cfg = self.config
        while True:
            if tick >= cfg.max_ticks:
                raise RuntimeError(
                    f"cluster did not converge within {cfg.max_ticks} ticks"
                    f" ({len(self._queue)} queued,"
                    f" {sum(len(w.residents) for w in self.workers)} resident)"
                )
            result.faults_fired.extend(self._apply_faults(now_s))
            self._observe(now_s, tick)
            while (
                arrival_i < len(pending)
                and pending[arrival_i].arrival_s <= now_s
            ):
                self._submit(pending[arrival_i], self._queue, now_s)
                arrival_i += 1
            self._place_fair_share(now_s, tick)
            for worker in self.workers:
                if (
                    not worker.residents
                    or not self.supervisor.active(worker.worker_id)
                    or not worker.alive(now_s)
                    or now_s < worker.busy_until_s
                ):
                    continue
                if cfg.mode == "continuous":
                    batch = self.scheduler.compose(worker)
                    if not batch:
                        # Admission caps a session's pages at max_pages,
                        # so evicting the head's peers always lets it step.
                        self._preempt_wedged(worker, now_s)
                        batch = self.scheduler.compose(worker)
                else:
                    batch = self.scheduler.by_priority(
                        list(worker.residents.values())
                    )
                iteration = worker.iterate(now_s, batch)
                result.iterations += 1
                result.occupancy_samples.append(iteration.batch_size)
                result.kv_samples.append(worker.kv_utilization())
                if tracer.enabled:
                    lane = f"cluster.w{worker.worker_id}"
                    tracer.timed_span(
                        f"iter {worker.iterations - 1}",
                        track=lane, cat="cluster",
                        dur_s=iteration.device_s, ts_s=iteration.start_s,
                        args={
                            "batch": iteration.batch_size,
                            "sessions": [
                                t.session_id for t in iteration.tokens
                            ],
                        },
                    )
                    tracer.counter(
                        "batch_occupancy", iteration.batch_size, track=lane,
                        cat="cluster",
                    )
                    tracer.counter(
                        "kv_utilization", worker.kv_utilization(), track=lane,
                        cat="cluster",
                    )
                self._retire(iteration, worker)
                result.makespan_s = max(result.makespan_s, iteration.end_s)
            if (
                arrival_i >= len(pending)
                and not self._queue
                and not any(w.residents for w in self.workers)
                and not self._orphans
            ):
                # Faults still scheduled past this point would hit an
                # idle cluster — nothing left to orphan; terminate.
                break
            now_s += cfg.tick_s
            tick += 1
        result.ticks = tick
        result.router_stats = self.router.stats()
        result.pool_stats = self.pool.stats()
        result.supervisor_transitions = list(self.supervisor.transitions)
        return result
