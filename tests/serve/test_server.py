"""Server end-to-end: admission, batching, dispatch, accounting."""

import pytest

import repro
from repro.serve import (
    ExecutablePool,
    Request,
    ServeError,
    Server,
    SyncClient,
    generate_trace,
    gptj_serving_mix,
    replay_trace,
)
from repro.workloads import va

from .conftest import tiny_mix


def _expected_outputs(mix, trace, target="upmem"):
    """What individual Executable.run calls produce for each event."""
    expected = []
    for event in trace:
        entry = mix[event.workload]
        exe = repro.compile(
            entry.workload, target=target, params=entry.params
        )
        expected.append(
            exe.run(entry.workload.random_inputs(seed=event.input_seed))
        )
    return expected


def _assert_outputs_equal(actual, expected):
    assert len(actual) == len(expected)
    for a_outs, e_outs in zip(actual, expected):
        assert len(a_outs) == len(e_outs)
        for a, e in zip(a_outs, e_outs):
            assert a.dtype == e.dtype and a.shape == e.shape
            assert a.tobytes() == e.tobytes()


class TestEndToEnd:
    def test_served_responses_match_individual_runs(self):
        mix = tiny_mix()
        trace = generate_trace(40, sorted(mix), seed=3, burst=8, gap_ticks=4)
        with Server(
            ExecutablePool(capacity=4), max_batch_size=8, max_wait_ticks=2
        ) as server:
            tickets = replay_trace(server, trace, mix)
        assert all(t.done for t in tickets)
        _assert_outputs_equal(
            [t.response.outputs for t in tickets],
            _expected_outputs(mix, trace),
        )

    @pytest.mark.slow
    def test_200_mixed_gptj_requests_bit_for_bit(self):
        """Acceptance: 200 mixed GPT-J + tensor-op requests on upmem,
        every response bit-identical to an individual run."""
        mix = gptj_serving_mix(tokens=4)
        trace = generate_trace(
            200, sorted(mix), seed=0, burst=16, gap_ticks=4
        )
        with Server(
            ExecutablePool(capacity=8), max_batch_size=16, max_wait_ticks=4
        ) as server:
            tickets = replay_trace(server, trace, mix)
            metrics = server.metrics_dict()
        assert all(t.done for t in tickets)
        assert metrics["completed"] == 200
        assert metrics["rejected"] == 0
        # Batching actually happened (not 200 singleton flushes).
        assert metrics["flushes"] < 200
        _assert_outputs_equal(
            [t.response.outputs for t in tickets],
            _expected_outputs(mix, trace),
        )

    def test_responses_carry_timing_fields(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=2) as server:
            tickets = server.submit_many(
                [
                    Request(
                        entry.workload,
                        entry.workload.random_inputs(seed=i),
                        params=entry.params,
                    )
                    for i in range(2)
                ]
            )
        response = tickets[0].response
        assert response.batch_size == 2
        assert response.latency_s == pytest.approx(
            response.queue_s + response.execute_s
        )
        assert response.execute_s > 0
        assert response.workload == "va"
        assert [t.response.request_id for t in tickets] == [0, 1]


class TestEmptyQueue:
    def test_drain_empty_returns_empty_list(self):
        with Server() as server:
            assert server.drain() == []
            assert server.pool.misses == 0  # nothing compiled
            assert server.metrics.flushes == 0

    def test_drain_twice(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=8) as server:
            server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=0),
                    params=entry.params,
                )
            )
            assert len(server.drain()) == 1
            assert server.drain() == []

    def test_run_batch_empty_is_empty(self):
        """Regression (satellite): empty batches short-circuit."""
        exe = repro.compile(
            va(1024),
            target="upmem",
            params={"n_dpus": 2, "n_tasklets": 2, "cache": 64},
        )
        assert exe.run_batch([]) == []
        assert repro.compile(va(1024), target="cpu").run_batch([]) == []


class TestAdmissionControl:
    def test_overflow_rejected_and_counted(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(
            max_batch_size=64, max_wait_ticks=100, queue_limit=4
        ) as server:
            tickets = server.submit_many(
                [
                    Request(
                        entry.workload,
                        entry.workload.random_inputs(seed=i),
                        params=entry.params,
                    )
                    for i in range(7)
                ]
            )
            statuses = [t.status for t in tickets]
            assert statuses == ["queued"] * 4 + ["rejected"] * 3
            assert all(
                "queue full" in t.reject_reason for t in tickets[4:]
            )
            responses = server.drain()
            metrics = server.metrics_dict()
        assert len(responses) == 4
        assert metrics["rejected"] == 3
        assert metrics["completed"] == 4
        assert metrics["per_workload"]["va"]["rejected"] == 3

    def test_rejected_requests_get_no_response(self):
        with Server(queue_limit=1, max_batch_size=8) as server:
            mix = tiny_mix()
            entry = mix["va"]
            reqs = [
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=i),
                    params=entry.params,
                )
                for i in range(2)
            ]
            first, second = server.submit_many(reqs)
            assert second.rejected and second.response is None
            assert server.flush_ticket(second) is None
            server.drain()
            assert first.done

    def test_queue_limit_validated(self):
        with pytest.raises(ValueError, match="queue_limit"):
            Server(queue_limit=0)


class TestBatchingBehavior:
    def test_flush_on_size(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=3, max_wait_ticks=100) as server:
            tickets = server.submit_many(
                [
                    Request(
                        entry.workload,
                        entry.workload.random_inputs(seed=i),
                        params=entry.params,
                    )
                    for i in range(7)
                ]
            )
            # Two full flushes fired on size; one request still pending.
            assert [t.done for t in tickets] == [True] * 6 + [False]
            assert server.metrics.batch_sizes == {3: 2}
            server.drain()
            assert server.metrics.batch_sizes == {3: 2, 1: 1}

    def test_flush_on_age(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=16, max_wait_ticks=2) as server:
            ticket = server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=0),
                    params=entry.params,
                )
            )
            assert server.tick() == []  # age 1 < 2
            assert not ticket.done
            responses = server.tick()  # age 2 -> flush
            assert len(responses) == 1 and ticket.done

    def test_different_programs_never_share_a_batch(self):
        mix = tiny_mix()
        with Server(max_batch_size=16, max_wait_ticks=4) as server:
            for i, name in enumerate(["va", "mtv", "va", "mtv", "va"]):
                entry = mix[name]
                server.submit(
                    Request(
                        entry.workload,
                        entry.workload.random_inputs(seed=i),
                        params=entry.params,
                    )
                )
            server.drain()
            # One flush per program: 3 va + 2 mtv.
            assert server.metrics.batch_sizes == {3: 1, 2: 1}

    def test_weight_staging_charged_on_load_only(self):
        """First flush of a const-input workload pays the weight H2D;
        later flushes of the resident program do not."""
        mix = tiny_mix()
        entry = mix["mtv"]  # A is a const (weight) input
        with Server(max_batch_size=1) as server:
            first = server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=0),
                    params=entry.params,
                )
            )
            second = server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=1),
                    params=entry.params,
                )
            )
        assert first.response.execute_s > second.response.execute_s

    def test_batched_throughput_beats_singletons(self):
        """Acceptance shape: same trace, batch 16 completes in less
        simulated time than batch 1."""
        mix = tiny_mix()
        trace = generate_trace(48, sorted(mix), seed=1, burst=16, gap_ticks=4)
        throughput = {}
        for max_batch in (1, 16):
            with Server(
                max_batch_size=max_batch, max_wait_ticks=4, queue_limit=None,
            ) as server:
                replay_trace(server, trace, mix)
                metrics = server.metrics_dict()
            assert metrics["completed"] == 48
            throughput[max_batch] = metrics["throughput_rps"]
        assert throughput[16] > throughput[1]


class TestFailureIsolation:
    def test_poisoned_batch_fails_visibly_and_serving_continues(self):
        """A flush that raises fails only its own group: tickets turn
        'failed' with the error recorded, the device clock is not
        charged, and later requests still serve."""
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=2) as server:
            good_inputs = entry.workload.random_inputs(seed=0)
            bad = server.submit(
                Request(entry.workload, {"WRONG": good_inputs["A"]},
                        params=entry.params)
            )
            rider = server.submit(  # same group as the poisoned request
                Request(entry.workload,
                        entry.workload.random_inputs(seed=1),
                        params=entry.params)
            )
            assert bad.failed and rider.failed
            assert "KeyError" in bad.error
            assert bad.response is None
            assert server.elapsed == 0.0  # nothing charged to the device
            assert server.metrics.failed == 2
            assert server.metrics.flushes == 0

            # Failed requests keep their inputs, so the innocent rider
            # is resubmittable as-is — and the server keeps serving.
            assert rider.request.inputs is not None
            retried = server.submit(rider.request)
            ok = server.submit(
                Request(entry.workload,
                        entry.workload.random_inputs(seed=2),
                        params=entry.params)
            )
            server.drain()
            metrics = server.metrics_dict()
        assert retried.done and ok.done
        assert metrics["failed"] == 2
        assert metrics["completed"] == 2
        assert metrics["per_workload"]["va"]["failed"] == 2

    def test_profile_error_is_reported_not_repriced(self, monkeypatch):
        """An error inside ``profile()`` is the failure: the server fails
        the group with it and a graph profile raises it — neither falls
        back to pricing the program as ``Latency(kernel=exe.latency)``."""
        from repro.graph import compile_graph
        from repro.target import RooflineExecutable

        from ..graph.conftest import chain_graph

        def broken(self):
            raise ZeroDivisionError("model bug")

        # A roofline's ``latency`` does not go through ``profile()``, so
        # a fallback to it would hide the error.
        monkeypatch.setattr(RooflineExecutable, "profile", broken)
        entry = tiny_mix()["va"]
        with Server(max_batch_size=1) as server:
            ticket = server.submit(
                Request(entry.workload,
                        entry.workload.random_inputs(seed=0),
                        target="cpu")
            )
            assert ticket.failed and "ZeroDivisionError" in ticket.error
            assert server.elapsed == 0.0 and server.metrics.failed == 1
        with pytest.raises(ZeroDivisionError, match="model bug"):
            compile_graph(chain_graph(), "cpu").profile()

    def test_non_executable_target_fails_not_strands(self):
        """A target resolves at admission, so a ``TargetError`` from
        its compile (SimplePIM has no MTV) fails the flushed group."""
        mix = tiny_mix()
        entry = mix["mtv"]
        with Server(max_batch_size=1) as server:
            ticket = server.submit(
                Request(entry.workload,
                        entry.workload.random_inputs(seed=0),
                        target="simplepim")
            )
        assert ticket.failed
        assert "TargetError" in ticket.error

    def test_a_graph_request_is_rejected_at_admission(self):
        """A model graph is many programs, not a workload: it has no
        workload signature, so the server rejects the request as
        unservable before it joins a group."""
        from ..graph.conftest import chain_graph

        graph = chain_graph()
        with Server(max_batch_size=1) as server:
            ticket = server.submit(Request(graph, graph.random_inputs(0)))
            assert ticket.rejected and not server.batcher.pending
        assert "TypeError" in ticket.reject_reason
        assert "Workload" in ticket.reject_reason
        assert server.metrics.rejected == 1

    def test_unknown_target_rejected_at_admission(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server() as server:
            ticket = server.submit(
                Request(entry.workload,
                        entry.workload.random_inputs(seed=0),
                        target="no-such-backend")
            )
        assert ticket.rejected
        assert "TargetError" in ticket.reject_reason
        assert server.metrics.rejected == 1

    def test_staging_charge_survives_a_failed_loading_flush(self):
        """If the flush that stages a weight-carrying program fails, the
        next successful flush still pays the one-time H2D charge."""
        mix = tiny_mix()
        entry = mix["mtv"]  # A is a const (weight) input

        def first_good_execute_s(poison_first):
            with Server(max_batch_size=1) as server:
                if poison_first:
                    bad = server.submit(
                        Request(entry.workload, {"WRONG": None},
                                params=entry.params)
                    )
                    assert bad.failed
                ok = server.submit(
                    Request(entry.workload,
                            entry.workload.random_inputs(seed=0),
                            params=entry.params)
                )
                assert ok.done
                return ok.response.execute_s

        assert first_good_execute_s(True) == first_good_execute_s(False)

    def test_sync_client_raises_on_failure(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=4) as server:
            with pytest.raises(ServeError, match="failed"):
                SyncClient(server).infer(
                    entry.workload, {"WRONG": None}, params=entry.params
                )


class TestSyncClient:
    def test_infer_round_trip(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=16, max_wait_ticks=100) as server:
            client = SyncClient(server)
            ins = entry.workload.random_inputs(seed=0)
            response = client.infer(
                entry.workload, ins, params=entry.params
            )
        assert response.batch_size == 1
        exe = repro.compile(
            entry.workload, target="upmem", params=entry.params
        )
        (expected,) = exe.run(entry.workload.random_inputs(seed=0))
        assert response.outputs[0].tobytes() == expected.tobytes()

    def test_forced_flush_uses_admission_time_key(self):
        """Mutating the workload between submit and flush_ticket must
        not orphan the queued request — the server flushes the group it
        was admitted under."""
        from repro.workloads import mtv

        wl = mtv(32, 64)
        params = tiny_mix()["mtv"].params
        with Server(max_batch_size=16, max_wait_ticks=100) as server:
            ticket = server.submit(
                Request(wl, wl.random_inputs(seed=0), params=params)
            )
            wl.params.update({"model": "mutated-after-submit"})
            response = server.flush_ticket(ticket)
        assert ticket.done and response is not None

    def test_infer_rides_with_pending_batch(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(max_batch_size=16, max_wait_ticks=100) as server:
            queued = server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=1),
                    params=entry.params,
                )
            )
            response = SyncClient(server).infer(
                entry.workload,
                entry.workload.random_inputs(seed=2),
                params=entry.params,
            )
        assert response.batch_size == 2
        assert queued.done  # the sync flush completed the earlier request

    def test_rejected_infer_raises(self):
        mix = tiny_mix()
        entry = mix["va"]
        with Server(queue_limit=1, max_batch_size=8) as server:
            server.submit(
                Request(
                    entry.workload,
                    entry.workload.random_inputs(seed=0),
                    params=entry.params,
                )
            )
            with pytest.raises(ServeError, match="rejected"):
                SyncClient(server).infer(
                    entry.workload,
                    entry.workload.random_inputs(seed=1),
                    params=entry.params,
                )


class TestLifecycle:
    def test_closed_server_refuses_work(self):
        server = Server()
        server.close()
        with pytest.raises(ServeError, match="closed"):
            server.submit(Request(va(1024), {}))
        with pytest.raises(ServeError, match="closed"):
            server.drain()

    def test_inputs_released_after_completion(self):
        mix = tiny_mix()
        entry = mix["va"]
        request = Request(
            entry.workload,
            entry.workload.random_inputs(seed=0),
            params=entry.params,
        )
        with Server(max_batch_size=1) as server:
            ticket = server.submit(request)
            assert ticket.done
            assert request.inputs is None  # server dropped the arrays
            assert ticket.response.outputs is not None
            # Resubmitting the served (now inputs-less) Request is
            # rejected at admission instead of poisoning a batch group.
            again = server.submit(request)
            assert again.rejected
            assert "no inputs" in again.reject_reason

    def test_inputless_requests_rejected_at_admission(self):
        entry = tiny_mix()["va"]
        with Server(max_batch_size=1) as server:
            ticket = server.submit(Request(entry.workload, params=entry.params))
            assert ticket.rejected
            assert "no inputs" in ticket.reject_reason
            metrics = server.metrics_dict()
        assert metrics["rejected"] == 1 and metrics["accepted"] == 0
        assert metrics["pool"]["misses"] == 0  # nothing compiled
