"""Tracer semantics: virtual cursors, nesting, scoping, the null path."""

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestVirtualClock:
    def test_cursor_starts_at_zero(self):
        t = Tracer()
        assert t.now("anything") == 0.0

    def test_timed_span_advances_cursor(self):
        t = Tracer()
        t.timed_span("a", track="x", dur_s=0.5)
        t.timed_span("b", track="x", dur_s=0.25)
        assert t.now("x") == 0.75
        assert [s.ts for s in t.spans] == [0.0, 0.5]

    def test_tracks_are_independent(self):
        t = Tracer()
        t.timed_span("a", track="x", dur_s=1.0)
        t.timed_span("b", track="y", dur_s=0.5)
        assert (t.now("x"), t.now("y")) == (1.0, 0.5)

    def test_explicit_ts_jumps_forward_never_back(self):
        t = Tracer()
        t.timed_span("a", track="x", dur_s=0.1, ts_s=2.0)
        assert t.spans[0].ts == 2.0
        # An earlier explicit timestamp clamps to the cursor.
        t.instant("late", track="x", ts_s=0.5)
        assert t.events[-1].ts == 2.1

    def test_timed_span_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().timed_span("a", dur_s=-0.1)


class TestNesting:
    def test_span_extends_to_cover_children(self):
        t = Tracer()
        with t.span("outer", track="x"):
            t.timed_span("child1", track="x", dur_s=0.2)
            t.timed_span("child2", track="x", dur_s=0.3)
        outer = [s for s in t.spans if s.name == "outer"][0]
        assert (outer.ts, outer.dur) == (0.0, 0.5)

    def test_span_dur_sets_minimum_extent(self):
        t = Tracer()
        with t.span("outer", track="x", dur_s=1.0):
            t.timed_span("child", track="x", dur_s=0.2)
        outer = [s for s in t.spans if s.name == "outer"][0]
        assert outer.dur == 1.0
        assert t.now("x") == 1.0

    def test_events_balance(self):
        t = Tracer()
        with t.span("a", track="x"):
            with t.span("b", track="x"):
                t.instant("i", track="x")
        phases = [e.phase for e in t.events]
        assert phases == ["B", "B", "i", "E", "E"]

    def test_per_track_timestamps_nondecreasing(self):
        t = Tracer()
        with t.span("outer", track="x"):
            t.timed_span("a", track="x", dur_s=0.5)
            t.instant("p", track="x")
            t.timed_span("b", track="x", dur_s=0.5)
        seen = {}
        for e in t.events:
            assert e.ts >= seen.get(e.track, 0.0)
            seen[e.track] = e.ts


class TestQueries:
    def test_top_spans_ordered_by_duration(self):
        t = Tracer()
        t.timed_span("short", dur_s=0.1)
        t.timed_span("long", dur_s=0.9)
        t.timed_span("mid", dur_s=0.5)
        assert [s.name for s in t.top_spans(2)] == ["long", "mid"]

    def test_top_spans_tiebreak_is_deterministic(self):
        t = Tracer()
        t.timed_span("b", track="y", dur_s=0.5)
        t.timed_span("a", track="x", dur_s=0.5)
        # Same duration, same start: track name breaks the tie.
        assert [s.name for s in t.top_spans(2)] == ["a", "b"]

    def test_tracks_listing(self):
        t = Tracer()
        t.instant("i", track="z")
        t.instant("i", track="a")
        assert t.tracks() == ["a", "z"]


class TestScoping:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_use_tracer_scopes_and_restores(self):
        t = Tracer()
        with use_tracer(t) as active:
            assert active is t
            assert current_tracer() is t
            assert current_tracer().enabled
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_none_disables(self):
        t = Tracer()
        with use_tracer(t):
            with use_tracer(None):
                assert not current_tracer().enabled
            assert current_tracer() is t


class TestNullTracer:
    def test_all_methods_are_noops(self):
        n = NullTracer()
        assert not n.enabled
        with n.span("a", track="x", dur_s=1.0):
            pass
        assert n.timed_span("b", dur_s=1.0) is None
        n.instant("i")
        n.counter("c", 1.0)
        assert len(n) == 0
        assert n.spans == []

    def test_shared_span_handle_allocates_nothing(self):
        n = NullTracer()
        assert n.span("a") is n.span("b")


class TestWallClock:
    def test_off_by_default(self):
        t = Tracer()
        t.timed_span("a", dur_s=0.1)
        assert all(e.wall_ts is None for e in t.events)

    def test_opt_in_stamps_host_time(self):
        t = Tracer(wall_clock=True)
        with t.span("a"):
            pass
        assert all(e.wall_ts is not None for e in t.events)
        assert t.spans[0].wall_dur is not None
        assert t.spans[0].wall_dur >= 0.0

    def test_wall_dur_is_the_pairs_wall_distance(self):
        t = Tracer(wall_clock=True)
        t.timed_span("a", track="x", dur_s=0.5)
        with t.span("b", track="x"):
            pass
        b_begin, b_end = t.events[2:]
        assert [s.wall_dur for s in t.spans] == [
            0.0, b_end.wall_ts - b_begin.wall_ts,
        ]
        assert [s.wall_dur for s in Tracer().spans] == []


class TestSpanFold:
    """The fold itself is checked against the events under generated
    operation sequences in test_trace_invariants.py."""

    def test_spans_is_read_only(self):
        t = Tracer()
        with pytest.raises(AttributeError):
            t.spans = []

    def test_timed_span_returns_nothing(self):
        assert Tracer().timed_span("a", dur_s=0.1) is None
