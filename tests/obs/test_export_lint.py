"""The export and the lint: Chrome mapping, JSON safety, structural
checks, and the ``python -m repro.obs`` command."""

import json

import numpy as np
import pytest

from repro.obs import Tracer, chrome_trace, trace_lint, write_chrome_trace
from repro.obs.__main__ import main


def sample_tracer() -> Tracer:
    t = Tracer()
    with t.span("step", track="decode", cat="decode"):
        t.timed_span("layer 0", track="decode", dur_s=0.25, args={"layer": 0})
        t.timed_span("kv.append L0", track="kv-cache", dur_s=0.001)
    t.instant("admit", track="serve.requests", args={"rid": 0})
    t.timed_span("flush", track="serve.device", dur_s=0.1, ts_s=0.5)
    t.counter("pool.size", 3, track="pool")
    return t


class TestChromeExport:
    def test_lanes_map_subsystem_to_pid_track_to_tid(self):
        payload = chrome_trace(sample_tracer())
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        tracks = sorted(names.values())
        assert tracks == [
            "decode", "kv-cache", "pool", "serve.device", "serve.requests",
        ]
        # The two serve.* tracks share one pid (subsystem "serve").
        serve_pids = {
            pid for (pid, _), name in names.items()
            if name.startswith("serve.")
        }
        assert len(serve_pids) == 1

    def test_process_names_are_subsystems(self):
        payload = chrome_trace(sample_tracer())
        processes = sorted(
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        )
        assert processes == ["decode", "kv-cache", "pool", "serve"]

    def test_ts_is_microseconds(self):
        payload = chrome_trace(sample_tracer())
        layer = [
            e for e in payload["traceEvents"]
            if e.get("name") == "layer 0" and e["ph"] == "E"
        ][0]
        assert layer["ts"] == 0.25 * 1e6

    def test_counter_and_instant_phases(self):
        payload = chrome_trace(sample_tracer())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"B", "E", "i", "C", "M"} <= phases
        inst = [e for e in payload["traceEvents"] if e["ph"] == "i"][0]
        assert inst["s"] == "t"

    def test_other_data_is_clock_and_generator(self):
        payload = chrome_trace(sample_tracer())
        assert payload["otherData"] == {
            "clock": "virtual", "generator": "repro.obs",
        }

    def test_write_is_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(sample_tracer(), str(p1))
        write_chrome_trace(sample_tracer(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # valid JSON

    def test_args_tuples_become_lists(self):
        t = Tracer()
        t.instant("i", track="x", args={"pages": (1, 2), "n": 3})
        payload = chrome_trace(t)
        ev = [e for e in payload["traceEvents"] if e["ph"] == "i"][0]
        assert ev["args"] == {"pages": [1, 2], "n": 3}

    def test_non_finite_args_export_as_json(self, tmp_path):
        t = Tracer()
        t.instant("i", track="x", args={"x": float("nan")})
        t.instant("j", track="x", args={"up": float("inf"), "ok": 0.5})
        path = tmp_path / "t.json"
        write_chrome_trace(t, str(path))

        def reject(constant):
            raise ValueError(f"bare {constant} is not JSON")

        payload = json.loads(path.read_text(), parse_constant=reject)
        args = [e["args"] for e in payload["traceEvents"] if e["ph"] == "i"]
        assert args == [{"x": "nan"}, {"up": "inf", "ok": 0.5}]

    def test_args_sets_numpy_and_objects(self):
        t = Tracer()
        t.instant("i", track="x", args={
            "set": {3, 1, 2},
            "scalar": np.int64(7),
            "array": np.arange(2),
            "key": object,
        })
        ev = [e for e in chrome_trace(t)["traceEvents"] if e["ph"] == "i"][0]
        assert ev["args"] == {
            "set": [1, 2, 3],
            "scalar": 7,
            "array": repr(np.arange(2)),
            "key": repr(object),
        }

    def test_wall_clock_adds_wall_ms(self):
        t = Tracer(wall_clock=True)
        t.instant("i", track="x")
        t.instant("j", track="x", args={"n": 1})
        events = [e for e in chrome_trace(t)["traceEvents"] if e["ph"] == "i"]
        assert [sorted(e["args"]) for e in events] == [
            ["wall_ms"], ["n", "wall_ms"],
        ]
        assert events[0]["args"]["wall_ms"] <= events[1]["args"]["wall_ms"]
        assert trace_lint(chrome_trace(t)) == []


class TestLint:
    def test_clean_trace_passes(self):
        assert trace_lint(chrome_trace(sample_tracer())) == []

    def test_accepts_path(self, tmp_path):
        path = tmp_path / "t.json"
        payload = write_chrome_trace(sample_tracer(), str(path))
        assert trace_lint(str(path)) == []
        assert trace_lint(payload["traceEvents"]) == []  # a bare array

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        problems = trace_lint(str(path))
        assert problems and "not valid" in problems[0]

    def test_rejects_empty_trace(self):
        assert trace_lint({"traceEvents": []}) == ["traceEvents is empty"]

    @pytest.mark.parametrize("payload", [3, None, "a"])
    def test_rejects_a_payload_that_is_not_a_trace(self, payload, tmp_path):
        if isinstance(payload, str):  # a path: the file holds a string
            path = tmp_path / "s.json"
            path.write_text(json.dumps(payload))
            payload = str(path)
        problems = trace_lint(payload)
        assert len(problems) == 1
        assert problems[0].startswith("trace must be an object or array")

    @pytest.mark.parametrize("payload", [{}, {"traceEvents": {"ph": "B"}}])
    def test_rejects_missing_or_non_list_events(self, payload):
        assert trace_lint(payload) == ["traceEvents is missing or not a list"]

    def test_flags_an_event_that_is_not_an_object(self):
        events = ["B", {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 0}]
        assert trace_lint(events) == ["event #0 is not an object"]

    @pytest.mark.parametrize("phase", [None, "", 4])
    def test_flags_a_missing_phase(self, phase):
        event = {"name": "a", "pid": 1, "tid": 1, "ts": 0.0}
        if phase is not None:
            event["ph"] = phase
        assert trace_lint([event]) == ["event #0 has no phase ('ph')"]

    @pytest.mark.parametrize("ts", [None, "1.0", [1.0]])
    def test_flags_a_non_numeric_ts(self, ts):
        event = {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": ts}
        problems = trace_lint([event])
        # The event is skipped, so its "B" is not left open either.
        assert problems == ["event #0 (B 'a') has no numeric ts"]

    def test_catches_backwards_timestamps(self):
        events = [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5.0},
            {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 3.0},
        ]
        problems = trace_lint({"traceEvents": events})
        assert any("backwards" in p for p in problems)

    def test_other_lane_may_trail(self):
        events = [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 5.0},
            {"ph": "i", "name": "b", "pid": 1, "tid": 2, "ts": 1.0},
        ]
        assert trace_lint({"traceEvents": events}) == []

    def test_catches_unbalanced_spans(self):
        events = [
            {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0.0},
        ]
        problems = trace_lint({"traceEvents": events})
        assert any("unclosed" in p for p in problems)

    def test_catches_stray_end(self):
        events = [
            {"ph": "E", "name": "a", "pid": 1, "tid": 1, "ts": 0.0},
        ]
        problems = trace_lint({"traceEvents": events})
        assert any("no open span" in p for p in problems)

    def test_catches_mismatched_end_name(self):
        events = [
            {"ph": "B", "name": "a", "pid": 1, "tid": 1, "ts": 0.0},
            {"ph": "E", "name": "b", "pid": 1, "tid": 1, "ts": 1.0},
        ]
        problems = trace_lint({"traceEvents": events})
        assert any("open span" in p for p in problems)

    def test_cli_entrypoint(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        write_chrome_trace(sample_tracer(), str(path))
        assert main([str(path)]) == 0
        assert capsys.readouterr().out == f"trace-lint: {path}: OK\n"
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": []}')
        assert main([str(bad)]) == 1
        out, err = capsys.readouterr()
        assert "1 problem(s)" in out and "traceEvents is empty" in err
        assert main([]) == 2
        assert "usage: python -m repro.obs" in capsys.readouterr().err
