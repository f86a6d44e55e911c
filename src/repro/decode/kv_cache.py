"""Paged KV-cache management: block tables over a fixed page pool.

The KV cache is the one tensor in a decode loop that *grows* — every
generated token appends one key row and one value row per layer.  Naive
management reallocates (and re-transfers, and worst of all *replans*)
a contiguous cache every step.  This module manages cache memory the
way vLLM manages GPU KV blocks: a fixed pool of fixed-size pages, a
block table per (sequence, layer) mapping logical token positions to
physical pages, and growth by appending pages — so a decode step's
graph is sized to the *allocated capacity* (whole pages), not the token
count, and only a page-boundary crossing changes any graph shape.

Cost accounting is explicit: appending one token moves exactly the new
K and V rows over the host→device bus, charged at the simulated
machine's rank-level transfer rate (`h2d_seconds`).  The utilization /
fragmentation vocabulary is shared with the intermediate-buffer planner
via :func:`repro.graph.memory.arena_stats` — here capacity is allocated
page-tokens and "used" is cached tokens, so the tail of the last page
shows up as fragmentation exactly like best-fit slack does in the
arena plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.memory import arena_stats
from ..obs import current_tracer
from ..upmem.config import UpmemConfig

__all__ = [
    "CacheError",
    "CacheExtension",
    "PagedKVCache",
    "h2d_seconds",
]


class CacheError(RuntimeError):
    """Page pool exhausted or a sequence/layer reference is invalid."""


def h2d_seconds(nbytes: int, config: Optional[UpmemConfig] = None) -> float:
    """Host→device seconds for one explicit transfer of ``nbytes``.

    One rank-level push (`xfer_call_overhead_s`) plus the bytes at the
    aggregate H2D bandwidth — the same constants the lowered-module
    timing model charges for parallel transfers, so cache-extension and
    weight-staging traffic is denominated in the machine's own units.
    """
    cfg = config or UpmemConfig()
    return cfg.xfer_call_overhead_s + nbytes / (cfg.h2d_bandwidth_gbps * 1e9)


@dataclass(frozen=True)
class CacheExtension:
    """One sequence/layer cache-growth event: the explicit transfers.

    ``pages_allocated`` lists physical pages newly taken from the pool
    (empty for an append landing inside the current tail page);
    ``nbytes``/``seconds`` charge the K row + V row actually moved.
    """

    sequence: str
    layer: int
    position: int
    pages_allocated: Tuple[int, ...]
    nbytes: int
    seconds: float


@dataclass
class _Page:
    """One physical page: ``page_tokens`` K rows and V rows of one
    layer.  Zero-initialized — unwritten tail positions are masked out
    of attention, and zeros keep the padded reads deterministic."""

    k: np.ndarray
    v: np.ndarray


class PagedKVCache:
    """Block-table cache for N layers of per-token K/V rows.

    Pages are allocated from a fixed pool (lowest free id first, so
    allocation order is deterministic); each (sequence, layer) holds a
    block table — the ordered list of its physical page ids.  All
    layers of a sequence grow in lockstep, so one capacity number (in
    tokens, always a whole number of pages) sizes every attention
    operator of a decode-step graph.
    """

    def __init__(
        self,
        d_model: int,
        layers: int,
        page_tokens: int = 16,
        max_pages: int = 1024,
        config: Optional[UpmemConfig] = None,
    ) -> None:
        if d_model < 1 or layers < 1:
            raise ValueError(
                f"d_model/layers must be >= 1, got {d_model}/{layers}"
            )
        if page_tokens < 1:
            raise ValueError(f"page_tokens must be >= 1, got {page_tokens}")
        if max_pages < layers:
            raise ValueError(
                f"max_pages ({max_pages}) cannot hold even one page per"
                f" layer ({layers})"
            )
        self.d_model = d_model
        self.layers = layers
        self.page_tokens = page_tokens
        self.max_pages = max_pages
        self.config = config or UpmemConfig()
        self._pages: Dict[int, _Page] = {}
        self._free: List[int] = list(range(max_pages))
        #: sequence -> per-layer block tables (list of page ids).
        self._tables: Dict[str, List[List[int]]] = {}
        self._lengths: Dict[str, int] = {}
        #: Running totals over every extension event, for :meth:`stats`.
        self.extension_events = 0
        self.extension_bytes = 0
        self.extension_seconds = 0.0

    # -- page-size accounting ------------------------------------------------
    @property
    def row_nbytes(self) -> int:
        """Bytes of one K (or V) row: ``d_model`` float32 values."""
        return self.d_model * 4

    @property
    def page_nbytes(self) -> int:
        """Bytes of one physical page (K plane + V plane)."""
        return 2 * self.page_tokens * self.row_nbytes

    @property
    def free_pages(self) -> int:
        """Unallocated pages in the pool — the number a scheduler
        preflights against before admitting or stepping a sequence."""
        return len(self._free)

    # -- sequence lifecycle --------------------------------------------------
    def add_sequence(self, sequence: str) -> None:
        if sequence in self._tables:
            raise CacheError(f"sequence {sequence!r} already cached")
        self._tables[sequence] = [[] for _ in range(self.layers)]
        self._lengths[sequence] = 0

    def free_sequence(self, sequence: str) -> int:
        """Release every page of ``sequence`` back to the pool; returns
        the page count freed.  Freed ids re-enter the allocator sorted,
        keeping future allocation order independent of free order."""
        tables = self._tables.pop(sequence, None)
        if tables is None:
            raise CacheError(f"unknown sequence {sequence!r}")
        del self._lengths[sequence]
        freed = 0
        for table in tables:
            for pid in table:
                del self._pages[pid]
                self._free.append(pid)
                freed += 1
        self._free.sort()
        return freed

    def _table(self, sequence: str, layer: int) -> List[int]:
        try:
            tables = self._tables[sequence]
        except KeyError:
            raise CacheError(f"unknown sequence {sequence!r}") from None
        if not 0 <= layer < self.layers:
            raise CacheError(
                f"layer {layer} out of range for {self.layers}-layer cache"
            )
        return tables[layer]

    # -- growth --------------------------------------------------------------
    def _allocate_page(self) -> int:
        pid = self._free.pop(0)
        self._pages[pid] = _Page(
            k=np.zeros((self.page_tokens, self.d_model), dtype=np.float32),
            v=np.zeros((self.page_tokens, self.d_model), dtype=np.float32),
        )
        return pid

    def append(
        self,
        sequence: str,
        layer_rows: List[Tuple[np.ndarray, np.ndarray]],
    ) -> List[CacheExtension]:
        """Append one token's (k_row, v_row) per layer; returns the
        per-layer extension events (also added to the running totals).

        Every append is an explicit host→device transfer of the two new
        rows; an append crossing a page boundary additionally allocates
        one page per layer (allocation itself moves no bytes — pages
        are carved out of device memory, not shipped from the host).
        An append the pool cannot page for every layer raises
        :class:`CacheError`, and one with a row that is not ``d_model``
        floats raises ``ValueError``, before it changes anything.
        """
        if len(layer_rows) != self.layers:
            raise CacheError(
                f"append expects {self.layers} (k, v) row pairs,"
                f" got {len(layer_rows)}"
            )
        position = self._lengths[sequence] if sequence in self._lengths else (
            self._raise_unknown(sequence)
        )
        slot = position % self.page_tokens
        if slot == 0 and len(self._free) < self.layers:
            raise CacheError(
                f"page pool exhausted ({self.max_pages} pages of"
                f" {self.page_tokens} tokens; {len(self._free)} free,"
                f" {self.layers} needed)"
            )
        # Shape every row before any page is taken or written, so a
        # malformed row refuses the append whole, too.
        def shaped(row) -> np.ndarray:
            return np.asarray(row, dtype=np.float32).reshape(self.d_model)

        rows = [(shaped(k_row), shaped(v_row)) for k_row, v_row in layer_rows]
        new_events: List[CacheExtension] = []
        for layer, (k_row, v_row) in enumerate(rows):
            table = self._table(sequence, layer)
            allocated: Tuple[int, ...] = ()
            if slot == 0:
                allocated = (self._allocate_page(),)
                table.append(allocated[0])
            page = self._pages[table[-1]]
            page.k[slot] = k_row
            page.v[slot] = v_row
            nbytes = 2 * self.row_nbytes
            event = CacheExtension(
                sequence=sequence,
                layer=layer,
                position=position,
                pages_allocated=allocated,
                nbytes=nbytes,
                seconds=h2d_seconds(nbytes, self.config),
            )
            new_events.append(event)
            self.extension_events += 1
            self.extension_bytes += nbytes
            self.extension_seconds += event.seconds
        self._lengths[sequence] = position + 1
        tracer = current_tracer()
        if tracer.enabled:
            for event in new_events:
                tracer.timed_span(
                    f"kv.append L{event.layer}",
                    track="kv-cache",
                    cat="kv",
                    dur_s=event.seconds,
                    args={
                        "sequence": event.sequence,
                        "position": event.position,
                        "nbytes": event.nbytes,
                        "pages": list(event.pages_allocated),
                    },
                )
        return new_events

    @staticmethod
    def _raise_unknown(sequence: str) -> int:
        raise CacheError(f"unknown sequence {sequence!r}")

    # -- reads ---------------------------------------------------------------
    def length(self, sequence: str) -> int:
        if sequence not in self._lengths:
            self._raise_unknown(sequence)
        return self._lengths[sequence]

    def capacity(self, sequence: str) -> int:
        """Allocated tokens (pages × page size) — what a decode-step
        graph must size its attention operators to.  Zero for a fresh
        sequence."""
        return len(self._table(sequence, 0)) * self.page_tokens

    def block_table(self, sequence: str, layer: int) -> Tuple[int, ...]:
        return tuple(self._table(sequence, layer))

    def dense_kv(
        self, sequence: str, layer: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize the layer's cache as dense (capacity, d_model)
        K and V planes in block-table order (what the attention
        operators bind as const inputs).  The concatenation copies, so
        subsequent in-place page writes never alias a running step.
        A sequence with no page yet reads ``(0, d_model)`` planes."""
        table = self._table(sequence, layer)
        if not table:
            empty = np.zeros((0, self.d_model), dtype=np.float32)
            return empty, empty.copy()
        k = np.concatenate([self._pages[p].k for p in table], axis=0)
        v = np.concatenate([self._pages[p].v for p in table], axis=0)
        return k, v

    def attention_mask(self, sequence: str) -> np.ndarray:
        """(capacity,) additive mask: 0 over cached positions, ``-inf``
        over the allocated-but-unwritten tail of the last page."""
        capacity = self.capacity(sequence)
        mask = np.full((capacity,), -np.inf, dtype=np.float32)
        mask[: self.length(sequence)] = 0.0
        return mask

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Pool occupancy plus the shared utilization/fragmentation
        summary (used = cached tokens, capacity = allocated
        page-tokens, summed over sequences and layers)."""
        allocated_pages = len(self._pages)
        cached_tokens = sum(self._lengths.values())
        token_capacity = sum(
            self.capacity(seq) for seq in self._tables
        )
        return {
            "sequences": len(self._tables),
            "page_tokens": self.page_tokens,
            "pages_allocated": allocated_pages,
            "pages_free": len(self._free),
            "allocated_bytes": allocated_pages * self.page_nbytes,
            "cached_tokens": cached_tokens,
            "token_capacity": token_capacity,
            "extension_events": self.extension_events,
            "extension_bytes": self.extension_bytes,
            "extension_seconds": self.extension_seconds,
            **arena_stats(token_capacity * self.layers, cached_tokens * self.layers),
        }
