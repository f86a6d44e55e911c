"""Executable residency pool: lazy compilation with LRU eviction.

A serving process cannot afford to recompile per request, nor to keep
every program it has ever seen resident (real PIM deployments are bound
by MRAM capacity for staged weights; here residency also carries the
compiled module).  The pool compiles lazily per (workload, target,
params) key, reuses the process-wide artifact cache underneath (so an
evicted-then-reloaded program re-wraps the cached lowered module instead
of re-lowering), and evicts least-recently-used entries beyond
``capacity``.  Requests carry their schedule params (tuned ones come
from ``tuned_params``); ``None`` compiles the target's defaults.  Every
program compiles at the front door's default level, O3 (§5.3).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

from ..obs import current_tracer
from ..pipeline import workload_signature
from ..target import Executable, get_target
from ..workloads import Workload

__all__ = ["ExecutablePool"]


class ExecutablePool:
    """LRU cache of compiled :class:`~repro.target.Executable` objects."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Executable]" = OrderedDict()
        self._pinned: set = set()
        self._key_hits: Dict[Tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keying -------------------------------------------------------------
    @staticmethod
    def key_for(
        workload: Any, target: Any, params: Optional[Dict[str, int]] = None
    ) -> Tuple:
        """Batching/residency identity of one compiled program.

        Structural workload signature (not object identity) + target
        identity (kind, configuration) + explicit params:
        two separately constructed but equal workloads share an
        executable; differently parameterized or differently configured
        requests never do.  The signature walks the workload's compute
        expression, so it is memoized on the instance — a traffic
        stream re-submitting the same workload object derives it once.
        The memo revalidates against ``workload.params`` (the one field
        the codebase mutates in place, e.g. the GPT-J factories tagging
        model/layer), so a post-construction params update never serves
        a stale key; tensors and compute expressions are treated as
        immutable, as everywhere else in the repository.  Anything but
        a :class:`~repro.workloads.Workload` — a model graph included —
        is no servable program: a ``TypeError``.
        """
        if not isinstance(workload, Workload):
            raise TypeError(
                f"a pool key takes a Workload, not {type(workload).__name__}"
            )
        fingerprint = tuple(sorted((workload.params or {}).items()))
        memo = workload.__dict__.get("_structural_signature")
        if memo is None or memo[0] != fingerprint:
            memo = (fingerprint, workload_signature(workload))
            workload._structural_signature = memo
        return (
            memo[1],
            # A kind string shares identity with an explicitly
            # constructed default target.
            get_target(target).identity(),
            tuple(sorted((params or {}).items())),
        )

    @staticmethod
    def key_label(key: Tuple) -> str:
        """Readable, deterministic label for a pool key.

        ``"<workload>@<target-kind>[params]#<digest>"`` — the digest (8
        hex chars of the full key's sha1) keeps labels unique when two
        structurally different workloads share a name, while the prefix
        keeps stats/trace output human-scannable.
        """
        try:
            name = str(key[0][0])
        except (IndexError, TypeError):
            name = "?"
        try:
            kind = str(key[1][0])
        except (IndexError, TypeError):
            kind = "?"
        params = ""
        try:
            if key[2]:
                params = "[" + ",".join(f"{k}={v}" for k, v in key[2]) + "]"
        except (IndexError, TypeError):
            pass
        digest = hashlib.sha1(repr(key).encode()).hexdigest()[:8]
        return f"{name}@{kind}{params}#{digest}"

    # -- lookup -------------------------------------------------------------
    def get(
        self,
        workload: Any,
        target: Any = "upmem",
        params: Optional[Dict[str, int]] = None,
        key: Optional[Tuple] = None,
    ) -> Tuple[Executable, bool]:
        """Resident executable for the key, compiling on miss.

        Returns ``(executable, loaded)`` where ``loaded`` says this call
        compiled/staged the program (a pool miss) — the server charges
        the one-time weight-staging transfer to loading flushes only.
        ``key`` accepts a precomputed :meth:`key_for` result so hot
        paths that already hold one (the server computes it at submit)
        skip re-deriving the structural workload signature.
        """
        tracer = current_tracer()
        if key is None:
            key = self.key_for(workload, target, params)
        exe = self._entries.get(key)
        if exe is not None:
            self.hits += 1
            self._key_hits[key] = self._key_hits.get(key, 0) + 1
            self._entries.move_to_end(key)
            if tracer.enabled:
                tracer.instant(
                    "pool.hit", track="pool", cat="pool",
                    args={"key": self.key_label(key)},
                )
            return exe, False
        self.misses += 1
        if tracer.enabled:
            tracer.instant(
                "pool.miss", track="pool", cat="pool",
                args={"key": self.key_label(key)},
            )
            with tracer.span(
                "pool.load", track="pool", cat="pool",
                args={"key": self.key_label(key)},
            ):
                exe = self._compile(workload, target, params)
        else:
            exe = self._compile(workload, target, params)
        self._entries[key] = exe
        self._evict_over_capacity()
        return exe, True

    def _evict_over_capacity(self) -> None:
        """Drop least-recently-used unpinned programs until the pool
        fits its capacity, or only pinned ones are left."""
        tracer = current_tracer()
        while len(self._entries) > self.capacity:
            victim = next(
                (k for k in self._entries if k not in self._pinned), None
            )
            if victim is None:
                # Every resident program is pinned: run over capacity
                # rather than drop something a live decode loop holds.
                break
            del self._entries[victim]
            self.evictions += 1
            if tracer.enabled:
                tracer.instant(
                    "pool.evict", track="pool", cat="pool",
                    args={"key": self.key_label(victim)},
                )

    def _compile(
        self, workload: Any, target: Any, params: Optional[Dict[str, int]]
    ) -> Executable:
        # Local: looked up per call, so a wrapper installed on
        # ``repro.target.compile.compile`` (perf/trace.py) sees pool loads.
        from ..target.compile import compile as _compile

        return _compile(workload, target=target, params=params)

    def prewarm(
        self, specs: Iterable[Tuple[Any, Any, Optional[Dict[str, int]]]]
    ) -> int:
        """Compile (workload, target, params) triples ahead of traffic.

        Routes through :meth:`get`, so prewarmed programs are resident
        (up to ``capacity``) and their lowered modules land in the
        process-wide artifact cache — steady-state flushes then never
        stall on compilation even after an eviction.  Returns the number
        of programs this call actually compiled.
        """
        loaded = 0
        for workload, target, params in specs:
            _, was_loaded = self.get(workload, target, params)
            loaded += int(was_loaded)
        return loaded

    # -- residency control --------------------------------------------------
    def pin(self, key: Tuple) -> None:
        """Exempt ``key`` from LRU eviction until :meth:`unpin`.

        A decode loop's current working set (the capacity-epoch attention
        programs plus the capacity-independent FC programs every
        step reuses) must stay resident across thousands of steps even
        while other traffic churns the pool; pinning models the MRAM
        reservation a real deployment would hold for them.  Pinning a
        key not (yet) resident is allowed — it takes effect when the key
        is compiled.  If every resident entry is pinned the pool runs
        over ``capacity`` instead of evicting.
        """
        self._pinned.add(key)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "pool.pin", track="pool", cat="pool",
                args={"key": self.key_label(key)},
            )

    def unpin(self, key: Tuple) -> None:
        """Release a pin; the entry rejoins the ordinary LRU order, so a
        pool that pins held over capacity shrinks back to it at once.
        Unpinning an unknown key is a no-op."""
        self._pinned.discard(key)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "pool.unpin", track="pool", cat="pool",
                args={"key": self.key_label(key)},
            )
        self._evict_over_capacity()

    def pinned_keys(self) -> set:
        return set(self._pinned)

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "resident": len(self._entries),
            "pinned": len(self._pinned),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            # Per-program hit counts under readable labels, sorted so the
            # dict is deterministic for JSON dumps and test assertions.
            "per_key_hits": dict(
                sorted(
                    (self.key_label(k), n) for k, n in self._key_hits.items()
                )
            ),
        }
