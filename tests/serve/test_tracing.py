"""Traced serving: the reject, failed-flush and pool-eviction events
each land in a lint-clean trace, and a flush span's device lines add
up to its duration."""

import pytest

from repro.obs import Tracer, chrome_trace, trace_lint, use_tracer
from repro.serve import ExecutablePool, Request, Server

from .conftest import tiny_mix


def _named(tracer, name):
    return [e for e in tracer.events if e.name == name]


def test_no_inputs_reject_is_traced():
    entry = tiny_mix()["va"]
    tracer = Tracer()
    with use_tracer(tracer), Server() as server:
        ticket = server.submit(Request(entry.workload, params=entry.params))
    assert ticket.rejected
    (reject,) = _named(tracer, "reject")
    assert reject.args == {
        "workload": entry.workload.name, "reason": "no-inputs",
    }
    assert trace_lint(chrome_trace(tracer)) == []


def test_failed_flush_is_traced():
    entry = tiny_mix()["va"]
    inputs = entry.workload.random_inputs(seed=0)
    tracer = Tracer()
    with use_tracer(tracer), Server(max_batch_size=1) as server:
        ticket = server.submit(
            Request(entry.workload, {"WRONG": inputs["A"]}, params=entry.params)
        )
    assert ticket.failed
    (fail,) = _named(tracer, "flush.fail")
    assert fail.args["batch"] == 1
    assert fail.args["reason"] == ticket.error
    assert trace_lint(chrome_trace(tracer)) == []


def test_pool_eviction_is_traced():
    mix = tiny_mix()
    tracer = Tracer()
    with use_tracer(tracer), Server(
        ExecutablePool(capacity=1), max_batch_size=1
    ) as server:
        for name in ("va", "mtv"):
            entry = mix[name]
            server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=0),
                    params=entry.params,
                )
            )
        evictions = server.pool.stats()["evictions"]
    assert evictions == 1
    assert len(_named(tracer, "pool.evict")) == 1
    assert trace_lint(chrome_trace(tracer)) == []


def test_flush_span_carries_its_lines():
    """A flush span's args name each device line; they sum to its
    duration, the staging line is paid by the loading flush only."""
    entry = tiny_mix()["mtv"]
    tracer = Tracer()
    with use_tracer(tracer), Server(max_batch_size=2) as server:
        server.submit_many(
            [
                Request(entry.workload, entry.workload.random_inputs(seed=i),
                        params=entry.params)
                for i in range(4)
            ]
        )
    lines = ("dispatch", "launch", "kernel", "h2d", "d2h", "host", "staging")
    first, second = [s for s in tracer.spans if s.track == "serve.device"]
    for span in (first, second):
        assert span.dur == pytest.approx(
            sum(span.args[line] for line in lines), rel=1e-12
        )
    assert first.args["loaded"] and first.args["staging"] > 0
    assert second.args["staging"] == 0.0
    assert first.dur - second.dur == pytest.approx(first.args["staging"])
    assert trace_lint(chrome_trace(tracer)) == []
