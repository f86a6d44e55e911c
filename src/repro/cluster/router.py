"""Router: deterministic placement — least-loaded with session affinity.

Placement keys are derived entirely from simulation state (resident
counts, virtual busy-clocks, worker ids), so the same trace routes the
same way every run.  Tenant affinity keeps a tenant's sessions
co-located while its preferred worker stays placeable — KV pages and
capacity epochs for similar sequence lengths cluster together — and
falls back to least-loaded when it is not.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .session import Session
from .supervisor import Supervisor
from .worker import Worker

__all__ = ["Router"]


class Router:
    def __init__(self) -> None:
        #: tenant -> last worker their sessions were placed on.
        self._tenant_home: Dict[str, int] = {}
        self.placements = 0
        self.affinity_hits = 0

    def _candidates(
        self,
        session: Session,
        workers: List[Worker],
        supervisor: Supervisor,
    ) -> List[Worker]:
        """Workers that may take this session right now: supervisor
        says placeable, the node itself is up, and (whole-request mode)
        its admission window is not sealed."""
        return [
            w for w in workers
            if supervisor.placeable(w.worker_id)
            and not w.killed
            and not w.sealed
            and w.free_pages(session.layers) >= w.pages_needed(session)
        ]

    def place(
        self,
        session: Session,
        workers: List[Worker],
        supervisor: Supervisor,
    ) -> Optional[Worker]:
        """Pick a worker, or ``None`` when nobody can take the session
        (caller defers it — possibly after trying preemption)."""
        candidates = self._candidates(session, workers, supervisor)
        if not candidates:
            return None
        self.placements += 1
        home = self._tenant_home.get(session.tenant)
        for worker in candidates:
            if worker.worker_id == home:
                self.affinity_hits += 1
                return worker
        chosen = min(
            candidates,
            key=lambda w: (
                len(w.residents), w.busy_until_s, w.worker_id
            ),
        )
        self._tenant_home[session.tenant] = chosen.worker_id
        return chosen

    def stats(self) -> Dict[str, float]:
        return {
            "placements": self.placements,
            "affinity_hits": self.affinity_hits,
            "affinity_rate": (
                self.affinity_hits / self.placements if self.placements else 0.0
            ),
        }
