"""Worker: one serving node — decode engines over the shared pool.

A worker hosts the resident sessions placed on it, one
:class:`~repro.decode.engine.DecodeEngine` per model size (``layers``)
so mixed model classes coexist, all compiling through the cluster's
*shared* :class:`~repro.serve.pool.ExecutablePool` (a new worker — or a
replacement after a death — warm-starts from programs its peers
already compiled).  Every worker is built with the *same* engine seed:
model weights are identical fleet-wide, and a sequence's stream is
derived from its name — which is what makes replay-on-recovery land
bit-for-bit on any worker.

The worker also owns the iteration device-time model: one
:meth:`iterate` call decodes one token of every resident (grouped per
engine), charges
:meth:`~repro.decode.engine.IterationReport.device_seconds` to the
worker's ``busy_until_s`` clock, and reports each decoded token with
its digest so the cluster can retire, meter and trace it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..decode.engine import DecodeEngine
from ..serve.pool import ExecutablePool
from ..serve.server import DISPATCH_OVERHEAD_S
from .session import Session, token_digest

# cluster.py imports this module, so ClusterConfig is for annotations.
if TYPE_CHECKING:  # pragma: no cover - never true at run time
    from .cluster import ClusterConfig

__all__ = ["TokenEvent", "WorkerIteration", "Worker"]

#: Capacity epochs each engine keeps compiled: residents sit at mixed
#: positions, so an iteration revisits several capacities.
MAX_RESIDENT_EPOCHS = 4


@dataclass(frozen=True)
class TokenEvent:
    """One decoded token: which session, when (virtual), and the
    digest that makes replay verifiable."""

    session_id: str
    t_s: float
    digest: str


@dataclass(frozen=True)
class WorkerIteration:
    """One iteration's outcome on one worker."""

    worker: int
    start_s: float
    device_s: float
    tokens: Tuple[TokenEvent, ...]

    @property
    def end_s(self) -> float:
        return self.start_s + self.device_s

    @property
    def batch_size(self) -> int:
        return len(self.tokens)


class Worker:
    """One simulated serving node."""

    def __init__(
        self, worker_id: int, config: ClusterConfig, pool: ExecutablePool
    ) -> None:
        self.worker_id = worker_id
        #: Everything a worker needs to build (and rebuild) its engines.
        self.config = config
        self.pool = pool
        self.engines: Dict[int, DecodeEngine] = {}
        #: session_id -> Session, admission order.
        self.residents: Dict[str, Session] = {}
        self.busy_until_s = 0.0
        self.iterations = 0
        # Fault state: a killed worker is gone until re-provisioned; a
        # stalled one freezes (no heartbeat, no iterations) until the
        # stall passes — unless the supervisor fences it first.
        self.killed = False
        self.stalled_until_s = 0.0
        #: In whole-request mode: admission sealed until ALL residents
        #: of the current batch complete.
        self.sealed = False

    # -- engines -------------------------------------------------------------
    def engine(self, layers: int) -> DecodeEngine:
        """The engine serving one model size class, built on demand."""
        eng = self.engines.get(layers)
        if eng is None:
            eng = DecodeEngine(
                config=self.config.model,
                layers=layers,
                page_tokens=self.config.page_tokens,
                pool=self.pool,
                max_pages=self.config.max_pages,
                seed=self.config.engine_seed,
                check_references=self.config.check_references,
                max_resident_epochs=MAX_RESIDENT_EPOCHS,
            )
            self.engines[layers] = eng
        return eng

    # -- health --------------------------------------------------------------
    def alive(self, now_s: float) -> bool:
        """Would this worker's heartbeat arrive right now?"""
        return not self.killed and now_s >= self.stalled_until_s

    def kill(self) -> List[Session]:
        """Process death (or supervisor fencing): every engine — and
        with it every resident's KV state — is lost.  Returns the
        orphaned sessions for the cluster to re-queue."""
        orphans = list(self.residents.values())
        self.residents.clear()
        self.engines.clear()
        self.killed = True
        self.sealed = False
        return orphans

    def stall(self, now_s: float, duration_s: float) -> None:
        self.stalled_until_s = max(self.stalled_until_s, now_s + duration_s)

    def reprovision(self, now_s: float) -> None:
        """Replacement node comes up: clean slate, shared pool intact
        (it warm-starts from the fleet's compiled programs)."""
        self.killed = False
        self.stalled_until_s = 0.0
        self.busy_until_s = now_s
        self.sealed = False

    # -- admission -----------------------------------------------------------
    def pages_needed(self, session: Session) -> int:
        """KV pages admitting this session allocates (prompt plus any
        already-decoded tokens a replay will re-append)."""
        return self.engine(session.layers).prompt_pages(session.total_tokens)

    def free_pages(self, layers: int) -> int:
        return self.engine(layers).cache.free_pages

    def admit(self, session: Session, now_s: float) -> float:
        """Place a session here; returns device seconds charged (zero
        for a fresh admission — its prompt transfer is part of the
        first iteration's cache events; positive when the session had
        already decoded tokens and must *replay* them to rebuild KV).

        Replay verifies every regenerated token digest against the
        session's recorded stream — the bit-for-bit recovery proof."""
        engine = self.engine(session.layers)
        engine.add_sequence(session.sequence, prompt_tokens=session.prompt_tokens)
        replay_s = 0.0
        if session.tokens_done:
            session.replays += 1
            replay_s = DISPATCH_OVERHEAD_S
            for k in range(session.tokens_done):
                report = engine.step_seq(session.sequence)
                replay_s += report.total_s
                digest = token_digest(engine.hidden_state(session.sequence))
                if digest != session.token_digests[k]:
                    session.replay_ok = False
        self.residents[session.session_id] = session
        session.worker = self.worker_id
        if session.admitted_s is None:
            session.admitted_s = now_s
        return replay_s

    def evict(self, session: Session) -> int:
        """Preemption-by-eviction: drop the session's KV pages (the
        cluster re-queues it; re-admission replays).  Returns pages
        freed."""
        del self.residents[session.session_id]
        session.worker = None
        return self.engine(session.layers).remove_sequence(session.sequence)

    # -- the iteration -------------------------------------------------------
    def iterate(self, now_s: float, batch: List[Session]) -> WorkerIteration:
        """Run one iteration decoding one token of each session in
        ``batch`` (scheduler-priority order, grouped per model size).
        Each engine's group is one :meth:`DecodeEngine.step_batch`
        call; groups are separate executables, so each pays its own
        dispatch."""
        start = max(now_s, self.busy_until_s)
        device_s = 0.0
        # (session, token digest): each token is stamped with the
        # iteration's end, known once every group has run.
        digests: List[Tuple[str, str]] = []
        by_layers: Dict[int, List[Session]] = {}
        for session in batch:
            by_layers.setdefault(session.layers, []).append(session)
        for layers, group in by_layers.items():
            engine = self.engine(layers)
            iteration = engine.step_batch([s.sequence for s in group])
            device_s += iteration.device_seconds(
                dispatch_overhead_s=DISPATCH_OVERHEAD_S,
                replica_groups=self.config.replica_groups,
            )
            digests.extend(
                (s.session_id, token_digest(engine.hidden_state(s.sequence)))
                for s in group
            )
        end = start + device_s
        self.busy_until_s = end
        self.iterations += 1
        return WorkerIteration(
            worker=self.worker_id,
            start_s=start,
            device_s=device_s,
            tokens=tuple(TokenEvent(sid, end, d) for sid, d in digests),
        )

    # -- introspection -------------------------------------------------------
    def kv_utilization(self) -> float:
        """Allocated fraction of this worker's page pools (mean over
        its engines; read after an iteration, so one is built)."""
        fractions = [
            1.0 - eng.cache.free_pages / eng.cache.max_pages
            for eng in self.engines.values()
        ]
        return sum(fractions) / len(fractions)
