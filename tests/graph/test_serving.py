"""Graph-keyed serving: whole decode steps batch dynamically."""

import numpy as np

import repro
from repro.graph import gptj_model_graph
from repro.serve import ExecutablePool, Request, Server, SyncClient

from .conftest import TINY


def _requests(graph, n, target="upmem"):
    return [
        Request(
            workload=graph,
            inputs=graph.random_inputs(seed=i),
            target=target,
        )
        for i in range(n)
    ]


class TestGraphServing:
    def test_decode_steps_batch_together(self, tiny_decoder):
        with Server(
            ExecutablePool(capacity=8), max_batch_size=8, max_wait_ticks=2
        ) as server:
            tickets = server.submit_many(_requests(tiny_decoder, 3))
            server.drain()
            metrics = server.metrics_dict()
        assert all(t.done for t in tickets)
        assert metrics["flushes"] == 1  # one graph program, one flush
        assert metrics["batch_histogram"] == {"3": 1}
        assert all(t.response.batch_size == 3 for t in tickets)
        assert tickets[0].response.latency_s > 0

    def test_served_outputs_bit_for_bit_match_direct_run(self, tiny_decoder):
        with Server(ExecutablePool(capacity=8), max_batch_size=4) as server:
            tickets = server.submit_many(_requests(tiny_decoder, 2))
            server.drain()
        exe = repro.compile(tiny_decoder, target="upmem")
        for i, ticket in enumerate(tickets):
            want = exe.run(tiny_decoder.random_inputs(seed=i))
            got = ticket.response.outputs
            assert len(got) == len(want) == 3
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_structurally_equal_graphs_share_a_batch(self, tiny_decoder):
        """Two separately built decode-step graphs key identically, so
        their requests ride one flush."""
        other = gptj_model_graph(TINY, layers=1, capacity=4)
        with Server(
            ExecutablePool(capacity=8), max_batch_size=8, max_wait_ticks=4
        ) as server:
            t1 = server.submit(
                Request(tiny_decoder, tiny_decoder.random_inputs(0))
            )
            t2 = server.submit(Request(other, other.random_inputs(1)))
            server.drain()
            metrics = server.metrics_dict()
        assert t1.batch_key == t2.batch_key
        assert metrics["flushes"] == 1
        assert t1.response.batch_size == 2

    def test_different_token_counts_never_alias(self, tiny_decoder):
        longer = gptj_model_graph(TINY, layers=1, capacity=8)
        with Server(ExecutablePool(capacity=8), max_batch_size=8) as server:
            t1 = server.submit(
                Request(tiny_decoder, tiny_decoder.random_inputs(0))
            )
            t2 = server.submit(Request(longer, longer.random_inputs(0)))
            server.drain()
            metrics = server.metrics_dict()
        assert t1.batch_key != t2.batch_key
        assert metrics["flushes"] == 2

    def test_sync_client_serves_graphs(self, tiny_decoder):
        with Server(ExecutablePool(capacity=8)) as server:
            response = SyncClient(server).infer(
                tiny_decoder, tiny_decoder.random_inputs(3)
            )
        ref = tiny_decoder.reference_outputs(
            tiny_decoder.random_inputs(3)
        )
        assert list(ref) == tiny_decoder.output_names
        for got, want in zip(response.outputs, ref.values()):
            np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-5)
        assert response.workload == tiny_decoder.name
