"""Trace determinism & coverage: the exported virtual-clock trace is
byte-identical at any host thread count and under verify mode, and an
instrumented decode run reports from every subsystem."""

import json

import pytest

from repro.autotune.compile import default_engine
from repro.obs import Tracer, chrome_trace, trace_lint, use_tracer, write_chrome_trace

from ..conftest import at_both_widths
from ..decode.conftest import tiny_engine

TOKENS = 5
PROMPT = 6


def traced_decode(tmp_path, tag) -> bytes:
    """One fully traced fig17-style decode run, exported to bytes.

    The process-wide artifact cache is cleared first so every run
    (re)compiles the same programs and emits the same pipeline spans —
    a warm cache would legitimately shrink later runs' traces.
    """
    default_engine().cache.clear()
    tracer = Tracer()
    with use_tracer(tracer):
        engine = tiny_engine(layers=3)
        engine.decode(tokens=TOKENS, prompt_tokens=PROMPT)
    path = tmp_path / f"trace-{tag}.json"
    payload = write_chrome_trace(tracer, str(path))
    assert trace_lint(payload) == []
    return path.read_bytes()


class TestByteIdentity:
    def test_workers_1_vs_4_vs_default(self, tmp_path):
        a, b = at_both_widths(lambda: traced_decode(tmp_path, "w"))
        c = traced_decode(tmp_path, "wN")
        assert a == b == c

    def test_verify_mode_identical(self, tmp_path, monkeypatch):
        baseline = traced_decode(tmp_path, "vector")
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        assert traced_decode(tmp_path, "verify") == baseline

    def test_repeated_export_identical(self, tmp_path):
        default_engine().cache.clear()
        tracer = Tracer()
        with use_tracer(tracer):
            tiny_engine(layers=2).decode(tokens=2, prompt_tokens=4)
        one = json.dumps(chrome_trace(tracer), sort_keys=True)
        two = json.dumps(chrome_trace(tracer), sort_keys=True)
        assert one == two


class TestSubsystemCoverage:
    @pytest.fixture(scope="class")
    def decode_trace(self):
        default_engine().cache.clear()
        tracer = Tracer()
        with use_tracer(tracer):
            tiny_engine(layers=3).decode(tokens=TOKENS, prompt_tokens=PROMPT)
        return tracer

    def test_all_decode_side_subsystems_report(self, decode_trace):
        assert set(decode_trace.tracks()) >= {
            "pipeline", "pool", "graph", "kv-cache", "residency", "decode",
        }

    def test_pipeline_spans_include_passes(self, decode_trace):
        names = {s.name for s in decode_trace.spans if s.track == "pipeline"}
        assert any(n.startswith("pipeline ") for n in names)

    def test_pool_events_cover_lifecycle(self, decode_trace):
        names = {
            e.name for e in decode_trace.events if e.track == "pool"
        }
        assert {"pool.miss", "pool.hit", "pool.pin"} <= names

    def test_step_spans_cover_step_total(self, decode_trace):
        steps = [
            s for s in decode_trace.spans
            if s.track == "decode" and s.name.startswith("step ")
            and "graph" not in s.name
        ]
        assert len(steps) == TOKENS
        layers = [
            s for s in decode_trace.spans
            if s.track == "decode" and s.name.startswith("layer ")
        ]
        assert len(layers) == TOKENS * 3
        # Each step's extent equals the sum of its layer spans.
        assert sum(s.dur for s in steps) == pytest.approx(
            sum(s.dur for s in layers)
        )

    def test_kv_and_residency_charge_virtual_time(self, decode_trace):
        kv = [s for s in decode_trace.spans if s.track == "kv-cache"]
        stage = [s for s in decode_trace.spans if s.track == "residency"]
        assert kv and all(s.dur > 0 for s in kv)
        assert stage and all(s.dur > 0 for s in stage)

    def test_graph_breakdown_spans_present(self, decode_trace):
        names = {s.name for s in decode_trace.spans if s.track == "graph"}
        assert "compute" in names


class TestServeTrace:
    def test_request_lifecycle_events(self):
        from repro.serve import ExecutablePool, Request, Server

        from ..serve.conftest import tiny_mix

        mix = tiny_mix()
        entry = mix["va"]
        tracer = Tracer()
        with use_tracer(tracer):
            with Server(
                ExecutablePool(capacity=4),
                max_batch_size=2,
                max_wait_ticks=2,
                queue_limit=2,
            ) as server:
                tickets = [
                    server.submit(
                        Request(
                            workload=entry.workload,
                            inputs=entry.workload.random_inputs(seed=i),
                            params=entry.params,
                        )
                    )
                    for i in range(4)
                ]
                server.drain()
        assert any(t.done for t in tickets)
        names = {e.name for e in tracer.events}
        assert {"admit", "flush va", "respond"} <= names
        assert trace_lint(chrome_trace(tracer)) == []

    def test_reject_and_fail_events(self):
        from repro.serve import ExecutablePool, Request, Server

        from ..serve.conftest import tiny_mix

        entry = tiny_mix()["va"]
        tracer = Tracer()
        with use_tracer(tracer):
            with Server(ExecutablePool(capacity=2), queue_limit=1) as server:
                server.submit(
                    Request(
                        workload=entry.workload,
                        inputs=entry.workload.random_inputs(seed=0),
                        params=entry.params,
                    )
                )
                # Queue full -> reject.
                server.submit(
                    Request(
                        workload=entry.workload,
                        inputs=entry.workload.random_inputs(seed=1),
                        params=entry.params,
                    )
                )
                # Bad input names -> the group fails at flush.
                server.drain()
        names = {e.name for e in tracer.events}
        assert "reject" in names


class TestDisabledOverhead:
    def test_decode_emits_nothing_when_disabled(self):
        from repro.obs import NULL_TRACER, current_tracer

        assert current_tracer() is NULL_TRACER
        tiny_engine(layers=2).decode(tokens=2, prompt_tokens=4)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.spans == []
