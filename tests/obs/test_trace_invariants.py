"""Trace invariants under generated operation sequences.

A hypothesis state machine drives one :class:`Tracer` with nested
spans, timed spans, instants and counters on up to three tracks, with
explicit ``ts_s`` jumps, and keeps its own cursor per track.  After
every step the events carry the timestamps the cursors predict, the
folded spans are exactly the B/E pairs, and the Chrome export lints
clean apart from the spans still open.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.obs import Tracer, chrome_trace, trace_lint

#: Two of the three tracks share the "b" subsystem, hence one Chrome pid.
TRACKS = st.sampled_from(["a", "b.x", "b.y"])
NAMES = st.sampled_from(["p", "q", "r"])
DURATIONS = st.floats(min_value=0.0, max_value=2.0)
JUMPS = st.none() | st.floats(min_value=0.0, max_value=10.0)


class TraceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer()
        #: track -> the virtual cursor the tracer should hold.
        self.cursors = {}
        #: Open span handles with their begin time, innermost last.
        self.open = []

    def _at(self, track, ts_s):
        cur = self.cursors.get(track, 0.0)
        return cur if ts_s is None else max(cur, ts_s)

    def _last(self, n):
        return [tuple(e[:4]) for e in self.tracer.events[-n:]]

    @rule(name=NAMES, track=TRACKS, ts_s=JUMPS, dur_s=st.none() | DURATIONS)
    def open_span(self, name, track, ts_s, dur_s):
        handle = self.tracer.span(
            name, track=track, cat="c", args={"depth": len(self.open)},
            dur_s=dur_s, ts_s=ts_s,
        )
        handle.__enter__()
        begin = self.cursors[track] = self._at(track, ts_s)
        self.open.append((handle, begin))
        assert self._last(1) == [("B", name, track, begin)]

    @precondition(lambda self: self.open)
    @rule()
    def close_span(self):
        handle, begin = self.open.pop()
        handle.__exit__(None, None, None)
        end = self.cursors.get(handle.track, 0.0)
        if handle.dur_s is not None:
            end = max(end, begin + handle.dur_s)
        self.cursors[handle.track] = end
        assert self._last(1) == [("E", handle.name, handle.track, end)]

    @rule(name=NAMES, track=TRACKS, dur_s=DURATIONS, ts_s=JUMPS)
    def timed_span(self, name, track, dur_s, ts_s):
        self.tracer.timed_span(name, track=track, dur_s=dur_s, ts_s=ts_s)
        ts = self._at(track, ts_s)
        self.cursors[track] = ts + dur_s
        assert self._last(2) == [
            ("B", name, track, ts), ("E", name, track, ts + dur_s),
        ]

    @rule(name=NAMES, track=TRACKS, ts_s=JUMPS)
    def instant(self, name, track, ts_s):
        self.tracer.instant(name, track=track, ts_s=ts_s)
        ts = self.cursors[track] = self._at(track, ts_s)
        assert self._last(1) == [("i", name, track, ts)]

    @rule(name=NAMES, track=TRACKS, value=st.integers(0, 100))
    def counter(self, name, track, value):
        self.tracer.counter(name, value, track=track)
        ts = self.cursors.get(track, 0.0)
        assert self._last(1) == [("C", name, track, ts)]
        assert self.tracer.events[-1].args == {"value": float(value)}

    @invariant()
    def cursors_match_the_model(self):
        for track, cursor in self.cursors.items():
            assert self.tracer.now(track) == cursor

    @invariant()
    def per_track_timestamps_never_decrease(self):
        last = {}
        for event in self.tracer.events:
            assert event.ts >= last.get(event.track, 0.0)
            last[event.track] = event.ts

    @invariant()
    def spans_are_the_begin_end_pairs(self):
        events = self.tracer.events
        spans = self.tracer.spans
        ends = [i for i, e in enumerate(events) if e.phase == "E"]
        assert len(spans) == len(ends)
        matched = set()
        for span, i in zip(spans, ends):
            end = events[i]
            # The begin is the latest unmatched "B" of the track before it.
            j = max(
                j for j in range(i)
                if events[j].phase == "B" and events[j].track == end.track
                and j not in matched
            )
            matched.add(j)
            begin = events[j]
            assert (span.name, span.track, span.cat) == (
                begin.name, begin.track, begin.cat,
            )
            assert span.name == end.name
            assert span.ts == begin.ts
            assert span.dur == end.ts - begin.ts
            assert span.args == begin.args
            assert span.wall_dur is None

    @invariant()
    def top_spans_is_a_prefix_of_the_full_order(self):
        ordered = sorted(
            self.tracer.spans, key=lambda s: (-s.dur, s.ts, s.track, s.name)
        )
        for n in (0, 1, 3, len(ordered) + 1):
            assert self.tracer.top_spans(n) == ordered[:n]

    @invariant()
    def export_lints_clean_but_for_open_spans(self):
        if not self.tracer.events:
            return
        problems = trace_lint(chrome_trace(self.tracer))
        open_tracks = {handle.track for handle, _ in self.open}
        assert len(problems) == len(open_tracks)
        assert all("unclosed span" in p for p in problems)

    def teardown(self):
        while self.open:
            self.close_span()
        if self.tracer.events:
            assert trace_lint(chrome_trace(self.tracer)) == []


TraceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestTraceInvariants = TraceMachine.TestCase
