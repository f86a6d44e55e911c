"""The tracer: virtual-clock spans, instants and counters on tracks.

A *track* is one named timeline ("pipeline", "pool", "serve.device",
"kv-cache", ...) with its own monotonic virtual-clock cursor starting
at 0.  Simulated durations advance the cursor explicitly —
:meth:`Tracer.timed_span` for a cost of known length,
:meth:`Tracer.span` for a nested region whose extent is whatever its
children charged (or an explicit ``ts_s`` jumps it forward).  Nothing
ever moves a cursor backwards, so per-track timestamps are
non-decreasing by construction and the exported trace passes the
B/E-balance and monotonicity lint.

:attr:`Tracer.events` is the whole trace: a span is its "B"/"E" pair
there, and :attr:`Tracer.spans` folds the pairs into
:class:`SpanRecord` objects when it is read.

Determinism contract: all virtual timestamps derive from the simulated
cost models and the (deterministic) order instrumented code runs in on
the *calling* thread.  Instrumentation sites in this repository only
emit from deterministic single-threaded control flow — never from
inside worker-pool fan-out — so a traced run exports byte-identical
JSON at any ``REPRO_MAX_WORKERS`` and under any ``REPRO_SIM_MODE``.  The
tracer itself is still lock-protected, so stray multi-threaded emission
is safe (just unordered).

Wall-clock capture (``wall_clock=True``) additionally stamps events
with ``time.perf_counter()`` for host profiling; that is the one opt-in
that makes a trace machine-dependent.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional

__all__ = [
    "TraceEvent",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]


class TraceEvent(NamedTuple):
    """One raw event: span begin/end ("B"/"E"), instant ("i") or
    counter sample ("C"), stamped on a track's virtual timeline."""

    phase: str
    name: str
    track: str
    ts: float  # virtual seconds on the track's timeline
    cat: str = ""
    args: Optional[Dict[str, Any]] = None
    #: Host seconds (``time.perf_counter``); only in wall-clock mode.
    wall_ts: Optional[float] = None


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a B/E pair of :attr:`Tracer.events`, folded."""

    name: str
    track: str
    ts: float
    dur: float
    cat: str = ""
    args: Optional[Dict[str, Any]] = None
    wall_dur: Optional[float] = None


class _OpenSpan:
    """Context-manager handle for one in-flight :meth:`Tracer.span`."""

    __slots__ = (
        "_tracer", "name", "track", "cat", "args", "dur_s", "ts_s", "_begin",
    )

    def __init__(self, tracer, name, track, cat, args, dur_s, ts_s):
        self._tracer = tracer
        self.name = name
        self.track = track
        self.cat = cat
        self.args = args
        self.dur_s = dur_s
        self.ts_s = ts_s
        self._begin = 0.0

    def __enter__(self) -> "_OpenSpan":
        self._tracer._begin_span(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._end_span(self)
        return False


class Tracer:
    """Collects spans, instants and counters as one list of events.

    One tracer is one trace.  Install it as the ambient tracer with
    :func:`use_tracer`; instrumented code finds it via
    :func:`current_tracer` and checks :attr:`enabled` before doing any
    per-event work.
    """

    enabled = True

    def __init__(self, wall_clock: bool = False) -> None:
        self.wall_clock = wall_clock
        self.events: List[TraceEvent] = []
        self._cursors: Dict[str, float] = {}
        self._lock = threading.RLock()

    # -- clocks -------------------------------------------------------------
    def now(self, track: str) -> float:
        """The track's virtual-clock cursor (seconds; 0.0 if unused)."""
        return self._cursors.get(track, 0.0)

    def tracks(self) -> List[str]:
        """Every track that has recorded at least one event, sorted."""
        with self._lock:
            return sorted({e.track for e in self.events})

    def _at(self, track: str, ts_s: Optional[float]) -> float:
        """Resolve an explicit/implicit timestamp against the cursor.
        Explicit timestamps may jump the cursor forward (e.g. to a
        serve flush's device start time) but never drag it back."""
        cur = self._cursors.get(track, 0.0)
        return cur if ts_s is None else max(cur, ts_s)

    def _wall(self) -> Optional[float]:
        return time.perf_counter() if self.wall_clock else None

    # -- spans --------------------------------------------------------------
    def span(
        self,
        name: str,
        track: str = "main",
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
        dur_s: Optional[float] = None,
        ts_s: Optional[float] = None,
    ) -> _OpenSpan:
        """Open a nested span as a context manager.

        The span begins at the track cursor (or ``ts_s`` if later) and
        ends wherever the cursor sits on exit — children opened inside
        (:meth:`timed_span`, nested :meth:`span`) extend it.  ``dur_s``
        sets a minimum extent for spans whose cost is known up front.
        """
        return _OpenSpan(self, name, track, cat, args, dur_s, ts_s)

    def _begin_span(self, h: _OpenSpan) -> None:
        with self._lock:
            ts = self._at(h.track, h.ts_s)
            self._cursors[h.track] = ts
            h._begin = ts
            self.events.append(
                TraceEvent(
                    "B", h.name, h.track, ts, h.cat, h.args, self._wall()
                )
            )

    def _end_span(self, h: _OpenSpan) -> None:
        with self._lock:
            end = self._cursors.get(h.track, 0.0)
            if h.dur_s is not None:
                end = max(end, h._begin + h.dur_s)
            self._cursors[h.track] = end
            self.events.append(
                TraceEvent(
                    "E", h.name, h.track, end, h.cat, None, self._wall()
                )
            )

    def timed_span(
        self,
        name: str,
        track: str = "main",
        dur_s: float = 0.0,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
        ts_s: Optional[float] = None,
    ) -> None:
        """Record a complete span of known simulated duration and
        advance the track cursor past it."""
        if dur_s < 0:
            raise ValueError(f"span duration must be >= 0, got {dur_s}")
        with self._lock:
            ts = self._at(track, ts_s)
            end = ts + dur_s
            self._cursors[track] = end
            wall = self._wall()
            self.events.append(
                TraceEvent("B", name, track, ts, cat, args, wall)
            )
            self.events.append(
                TraceEvent("E", name, track, end, cat, None, wall)
            )

    # -- points -------------------------------------------------------------
    def instant(
        self,
        name: str,
        track: str = "main",
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
        ts_s: Optional[float] = None,
    ) -> None:
        """Record a zero-duration event at the track cursor."""
        with self._lock:
            ts = self._at(track, ts_s)
            self._cursors[track] = ts
            self.events.append(
                TraceEvent("i", name, track, ts, cat, args, self._wall())
            )

    def counter(
        self,
        name: str,
        value: float,
        track: str = "metrics",
        cat: str = "",
    ) -> None:
        """Sample a counter series at the track cursor (Chrome "C")."""
        with self._lock:
            ts = self._cursors.get(track, 0.0)
            self.events.append(
                TraceEvent(
                    "C", name, track, ts, cat,
                    {"value": float(value)}, self._wall(),
                )
            )

    # -- queries ------------------------------------------------------------
    @property
    def spans(self) -> List[SpanRecord]:
        """Every completed span, folded from its track's B/E pair, in the
        order the spans ended."""
        open_: Dict[str, List[TraceEvent]] = {}
        spans: List[SpanRecord] = []
        with self._lock:
            for event in self.events:
                if event.phase == "B":
                    open_.setdefault(event.track, []).append(event)
                elif event.phase == "E":
                    begin = open_[event.track].pop()
                    spans.append(
                        SpanRecord(
                            begin.name,
                            begin.track,
                            begin.ts,
                            event.ts - begin.ts,
                            begin.cat,
                            begin.args,
                            None if begin.wall_ts is None
                            else event.wall_ts - begin.wall_ts,
                        )
                    )
        return spans

    def top_spans(self, n: int = 5) -> List[SpanRecord]:
        """The ``n`` longest completed spans (ties broken by start
        time, track, name — a total, deterministic order)."""
        return sorted(
            self.spans, key=lambda s: (-s.dur, s.ts, s.track, s.name)
        )[:n]

    def __len__(self) -> int:
        return len(self.events)


class _NullSpan:
    """Shared do-nothing context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Tracing disabled: every method is a no-op that allocates nothing.

    Instrumentation sites guard their per-event work (arg dict
    construction, label derivation) behind ``tracer.enabled`` so the
    disabled path costs one attribute read.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(wall_clock=False)

    def span(self, *args, **kwargs):
        return _NULL_SPAN

    def timed_span(self, *args, **kwargs):
        return None

    def instant(self, *args, **kwargs):
        return None

    def counter(self, *args, **kwargs):
        return None


#: The process-default tracer: tracing off.
NULL_TRACER = NullTracer()

_ACTIVE: List[Tracer] = [NULL_TRACER]


def current_tracer() -> Tracer:
    """The innermost active tracer (the shared null tracer when none)."""
    return _ACTIVE[-1]


@contextmanager
def use_tracer(tracer: Optional[Tracer]):
    """Scope ``tracer`` as the ambient tracer for a ``with`` block."""
    _ACTIVE.append(tracer if tracer is not None else NULL_TRACER)
    try:
        yield _ACTIVE[-1]
    finally:
        _ACTIVE.pop()
