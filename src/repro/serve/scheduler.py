"""Dynamic batching policy over a deterministic virtual clock.

Pending requests group by their compilation key (workload structure,
target kind, schedule params — see
:meth:`~repro.serve.pool.ExecutablePool.key_for`); a group flushes when
it reaches ``max_batch_size`` or when its oldest member has aged
``max_wait_ticks`` virtual-clock ticks.  The decision path uses *only*
the tick counter — never wall time — so a given traffic trace always
produces the same batch composition, on any machine, at any host thread
count.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from .request import Ticket

__all__ = ["PendingRequest", "DynamicBatcher"]


@dataclass
class PendingRequest:
    """A queued ticket plus its arrival coordinates."""

    seq: int  # global submission order — the determinism anchor
    ticket: Ticket
    arrival_tick: int
    arrival_s: float  # simulated arrival timestamp (metrics only)


class DynamicBatcher:
    """Size-or-age grouping of pending requests, FIFO within a group."""

    def __init__(self, max_batch_size: int = 16, max_wait_ticks: int = 4) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait_ticks < 0:
            raise ValueError(
                f"max_wait_ticks must be >= 0, got {max_wait_ticks}"
            )
        self.max_batch_size = max_batch_size
        self.max_wait_ticks = max_wait_ticks
        self._groups: "OrderedDict[Tuple, List[PendingRequest]]" = OrderedDict()

    # -- queue state --------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(group) for group in self._groups.values())

    @property
    def pending(self) -> int:
        return len(self)

    # -- mutation -----------------------------------------------------------
    def add(self, key: Tuple, entry: PendingRequest) -> bool:
        """Queue an entry under its batch key; True when the group is now
        full and must flush."""
        self._groups.setdefault(key, []).append(entry)
        return len(self._groups[key]) >= self.max_batch_size

    def take(self, key: Tuple) -> List[PendingRequest]:
        """Pop a whole group (empty list when the key has no entries)."""
        return self._groups.pop(key, [])

    # -- flush policy -------------------------------------------------------
    def due(self, tick: int) -> List[Tuple]:
        """Keys whose oldest entry has waited ``max_wait_ticks`` by
        ``tick``, ordered by that entry's submission sequence (oldest
        first) so flush order is reproducible."""
        ripe = [
            (group[0].seq, key)
            for key, group in self._groups.items()
            if tick - group[0].arrival_tick >= self.max_wait_ticks
        ]
        ripe.sort()
        return [key for _seq, key in ripe]

    def drain_keys(self) -> List[Tuple]:
        """Every key, oldest-first — the ``drain()`` order."""
        ripe = sorted((group[0].seq, key) for key, group in self._groups.items())
        return [key for _seq, key in ripe]
