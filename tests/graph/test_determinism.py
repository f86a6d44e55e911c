"""Determinism: host threads never change what a graph computes.

The graph-subsystem counterpart of ``tests/serve/test_determinism.py``:
one decode step executed on the caller's thread and as jobs on a
4-thread pool produces bit-for-bit identical outputs; the per-node cost
breakdown and the memory plan are functions of the graph alone.
"""

from repro.graph import compile_graph, gptj_model_graph, plan_memory

from ..conftest import at_both_widths
from .conftest import TINY


def _compile():
    graph = gptj_model_graph(TINY, layers=1, capacity=4)
    return graph, compile_graph(graph)


class TestWorkerCountInvariance:
    def test_outputs_identical_1_vs_4_workers(self):
        graph, exe = _compile()
        inputs = graph.random_inputs(9)
        out1, out4 = at_both_widths(lambda: exe.run_tensors(inputs))
        assert set(out1) == set(out4)
        for name in out1:
            assert out1[name].tobytes() == out4[name].tobytes()

    def test_per_node_timings_identical(self):
        _, first = _compile()
        _, second = _compile()
        costs1 = [c.to_dict() for c in first.profile().nodes]
        costs2 = [c.to_dict() for c in second.profile().nodes]
        assert costs1 == costs2  # deep equality, floats included
        assert first.profile().total == second.profile().total
        assert first.profile().staging_s == second.profile().staging_s

    def test_memory_plan_identical(self):
        g1, _ = _compile()
        g2, _ = _compile()
        p1, p2 = plan_memory(g1), plan_memory(g2)
        assert p1.assignments == p2.assignments
        assert p1.slot_sizes == p2.slot_sizes
        assert p1.to_dict() == p2.to_dict()

    def test_repeated_runs_are_identical(self):
        """No hidden state: the same executable re-run on the same
        inputs reproduces itself bit-for-bit."""
        g, exe = _compile()
        inputs = g.random_inputs(11)
        first = exe.run_tensors(inputs)
        second = exe.run_tensors(inputs)
        assert list(first) == list(second)
        for name in first:
            assert first[name].tobytes() == second[name].tobytes()
