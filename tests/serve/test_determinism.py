"""Determinism: a trace fully determines batches, responses, metrics.

The ISSUE's contract: same seed + same traffic trace => identical batch
composition, identical responses and an identical metrics dict whether
flushes run on the caller's thread or as jobs on a 4-thread pool.
Nothing in the decision path may consult wall time or thread scheduling.
"""

from repro.serve import (
    ExecutablePool,
    Server,
    TraceEvent,
    generate_trace,
    replay_trace,
)

from ..conftest import at_both_widths, host_threads
from .conftest import tiny_mix


def _serve(trace, mix):
    with Server(
        ExecutablePool(capacity=4),
        max_batch_size=8,
        max_wait_ticks=2,
        queue_limit=16,
    ) as server:
        tickets = replay_trace(server, trace, mix)
        return tickets, server.metrics_dict()


class TestTraceGeneration:
    def test_same_seed_same_trace(self):
        a = generate_trace(30, ["x", "y"], seed=7)
        b = generate_trace(30, ["x", "y"], seed=7)
        assert a == b

    def test_different_seed_different_trace(self):
        a = generate_trace(30, ["x", "y"], seed=7)
        b = generate_trace(30, ["x", "y"], seed=8)
        assert a != b

    def test_patterns_place_arrivals_on_tick_grid(self):
        burst = generate_trace(8, ["x"], seed=0, burst=4, gap_ticks=10)
        assert [e.tick for e in burst] == [0] * 4 + [10] * 4
        single = generate_trace(4, ["x"], seed=0, burst=1, gap_ticks=1)
        assert [e.tick for e in single] == [0, 1, 2, 3]

    def test_event_seeds_unique(self):
        trace = generate_trace(50, ["x"], seed=3)
        seeds = [e.input_seed for e in trace]
        assert len(set(seeds)) == len(seeds)


class TestWorkerCountInvariance:
    def test_metrics_identical_1_vs_4_workers(self):
        mix = tiny_mix()
        trace = generate_trace(24, sorted(mix), seed=5, burst=6, gap_ticks=3)
        (_, metrics_1), (_, metrics_4) = at_both_widths(
            lambda: _serve(trace, mix)
        )
        # Deep equality, floats included: the whole dict, not a summary.
        assert metrics_1 == metrics_4

    def test_responses_identical_1_vs_4_workers(self):
        mix = tiny_mix()
        trace = generate_trace(24, sorted(mix), seed=11, burst=4, gap_ticks=2)
        (tickets_1, _), (tickets_4, _) = at_both_widths(
            lambda: _serve(trace, mix)
        )
        for t1, t4 in zip(tickets_1, tickets_4):
            r1, r4 = t1.response, t4.response
            assert (r1.request_id, r1.batch_size, r1.arrival_tick) == (
                r4.request_id, r4.batch_size, r4.arrival_tick
            )
            assert r1.latency_s == r4.latency_s
            assert r1.queue_s == r4.queue_s
            assert r1.execute_s == r4.execute_s
            for a, b in zip(r1.outputs, r4.outputs):
                assert a.tobytes() == b.tobytes()  # bit-for-bit

    def test_replay_is_repeatable(self):
        """Two replays of the same trace are indistinguishable (no
        hidden global state)."""
        mix = tiny_mix()
        trace = generate_trace(16, sorted(mix), seed=2, burst=1, gap_ticks=1)
        _, first = _serve(trace, mix)
        _, second = _serve(trace, mix)
        assert first == second

    def test_batch_composition_from_trace_not_wall_time(self):
        """A hand-built trace produces an exactly predictable batch
        histogram: composition is a pure function of ticks."""
        mix = tiny_mix()
        trace = [
            TraceEvent(tick=0, workload="va", input_seed=100),
            TraceEvent(tick=0, workload="va", input_seed=101),
            TraceEvent(tick=1, workload="mtv", input_seed=102),
            TraceEvent(tick=1, workload="va", input_seed=103),
            TraceEvent(tick=9, workload="mtv", input_seed=104),
        ]
        for width in (1, 4):
            with host_threads(width), Server(
                max_batch_size=8, max_wait_ticks=2
            ) as server:
                replay_trace(server, trace, mix)
                # va group (ticks 0,0,1) flushes by age at tick 2 as a
                # 3-batch; mtv@1 ages out at tick 3; mtv@9 drains.
                assert server.metrics.batch_sizes == {3: 1, 1: 2}
