"""Continuous (iteration-level) batching: SLO-aware iteration
composition and preemption-by-eviction.

The scheduler decides, each time a worker frees up, *which residents
join the next iteration* — the decision that distinguishes continuous
batching from whole-request flushing:

* **Priority** is earliest-deadline-first over each session's *next
  token's* due time: a session still waiting on its first token runs
  against its TTFT deadline, a mid-stream one against its TPOT
  deadline (see :meth:`repro.cluster.session.Session.deadline_s`).
  The order is total (ties broken by arrival, then id), hence
  deterministic.
* **Page preflight**: a session whose next step crosses a KV page
  boundary needs pages *now*; the scheduler admits sessions to the
  iteration in priority order only while the engine's free pool covers
  them, deferring the rest a tick rather than letting an append fail
  mid-iteration.
* **Preemption-by-eviction**: when the pool is exhausted and a
  *higher-priority* session is stuck (can't step, or can't be
  admitted), the lowest-priority resident is evicted — its pages
  freed, the session re-queued for replay elsewhere/later.  Eviction
  only ever sacrifices strictly lower priority, so it cannot livelock
  two sessions against each other.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .session import Session
from .worker import Worker

__all__ = ["ContinuousScheduler"]


class ContinuousScheduler:
    """Iteration composer for one cluster (stateless between calls —
    all inputs come from cluster state)."""

    def __init__(self, max_batch: int = 8) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch

    @staticmethod
    def by_priority(sessions: List[Session]) -> List[Session]:
        return sorted(sessions, key=lambda s: s.priority())

    def compose(self, worker: Worker) -> List[Session]:
        """Select the next iteration's batch from the worker's
        residents: priority order, capped at ``max_batch``, page
        preflight per model-size engine."""
        chosen: List[Session] = []
        free: Dict[int, int] = {}
        for session in self.by_priority(list(worker.residents.values())):
            if len(chosen) >= self.max_batch:
                break
            engine = worker.engine(session.layers)
            budget = free.setdefault(
                session.layers, engine.cache.free_pages
            )
            need = engine.step_pages(session.sequence)
            if need > budget:
                continue
            free[session.layers] = budget - need
            chosen.append(session)
        return chosen

    def evict_for(
        self,
        worker: Worker,
        session: Session,
        pages_needed: int,
    ) -> Tuple[List[Session], bool]:
        """Free at least ``pages_needed`` pages on ``session``'s engine
        by evicting strictly-lower-priority residents, lowest priority
        first.  Returns ``(evicted, satisfied)``; on ``satisfied ==
        False`` nothing was sacrificed in vain — evictions still
        happened only if they were individually justified, and the
        caller defers the session."""
        engine = worker.engine(session.layers)
        victims = [
            s for s in self.by_priority(
                [r for r in worker.residents.values()
                 if r.layers == session.layers]
            )
            if s.priority() > session.priority()
        ]
        evicted: List[Session] = []
        while victims and engine.cache.free_pages < pages_needed:
            victim = victims.pop()  # lowest priority first
            worker.evict(victim)
            evicted.append(victim)
        return evicted, engine.cache.free_pages >= pages_needed
