"""Seeded fault injection: kill and stall workers mid-decode.

The injector pre-generates its whole schedule from the seed at
construction, so the fault timeline is part of the experiment's
deterministic inputs: the same seed produces the same kills at the
same virtual instants against the same workers, at any host thread
count — which is what makes "determinism under failure" testable at
all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["KILL", "STALL", "FaultEvent", "FaultInjector"]

KILL = "kill"    # worker loses all state (process death); fenced.
STALL = "stall"  # worker freezes for duration_s (GC pause, network
                 # partition); resumes with state intact if the
                 # supervisor has not declared it dead first.


@dataclass(frozen=True)
class FaultEvent:
    at_s: float
    worker: int
    kind: str
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (KILL, STALL):
            raise ValueError(f"kind must be {KILL!r} or {STALL!r}, got {self.kind!r}")
        if self.kind == STALL and self.duration_s <= 0:
            raise ValueError("stall faults need duration_s > 0")


class FaultInjector:
    """Deterministic fault schedule over a worker fleet."""

    def __init__(
        self,
        n_workers: int,
        seed: int = 0,
        n_faults: int = 0,
        horizon_s: float = 1.0,
        stall_s: float = 0.2,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for _ in range(n_faults):
            events.append(
                FaultEvent(
                    at_s=float(rng.uniform(0.0, horizon_s)),
                    worker=int(rng.integers(n_workers)),
                    kind=(KILL, STALL)[int(rng.integers(2))],
                    duration_s=stall_s,
                )
            )
        # Stable total order: time, then worker (simultaneous faults
        # against different workers fire low-id first).
        self._schedule = sorted(events, key=lambda e: (e.at_s, e.worker))
        self._cursor = 0

    @classmethod
    def from_events(
        cls, events: Sequence[FaultEvent], n_workers: Optional[int] = None
    ) -> "FaultInjector":
        """Injector with an explicit schedule (scenario tests and the
        fig18 recovery demonstration use a hand-placed kill)."""
        workers = n_workers or (max((e.worker for e in events), default=0) + 1)
        inj = cls(n_workers=workers, n_faults=0)
        inj._schedule = sorted(events, key=lambda e: (e.at_s, e.worker))
        return inj

    @property
    def schedule(self) -> List[FaultEvent]:
        return list(self._schedule)

    def fire(self, now_s: float) -> List[FaultEvent]:
        """Pop every scheduled fault due at or before ``now_s``."""
        due: List[FaultEvent] = []
        while (
            self._cursor < len(self._schedule)
            and self._schedule[self._cursor].at_s <= now_s
        ):
            due.append(self._schedule[self._cursor])
            self._cursor += 1
        return due
