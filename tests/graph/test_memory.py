"""Memory planner: linear-scan reuse over the topological order."""

from repro.graph import ATTN_MASK, ModelGraph, plan_memory
from repro.workloads import va

from .conftest import chain_graph


def _linear(n_nodes: int, width: int = 64) -> ModelGraph:
    """A straight chain of VA nodes: every intermediate dies after one
    use, so the planner should ping-pong between two slots."""
    g = ModelGraph("linear")
    g.add_input("x", (width,))
    g.add_input("b", (width,))
    prev = "x"
    for i in range(n_nodes):
        g.add_node(f"n{i}", va(width), {"A": prev, "B": "b"}, f"t{i}")
        prev = f"t{i}"
    return g


class TestLinearScan:
    def test_chain_reuses_dead_buffers(self):
        plan = plan_memory(_linear(6))
        # 6 intermediates, but never more than 2 live at once (the input
        # of the running node and its output).
        assert plan.naive_bytes == 6 * 64 * 4
        assert len(plan.slot_sizes) == 2
        assert plan.arena_bytes == 2 * 64 * 4
        assert plan.peak_live_bytes == 2 * 64 * 4
        assert plan.reuse_ratio == 3.0

    def test_no_two_live_tensors_share_a_slot(self, tiny_decoder):
        plan = plan_memory(tiny_decoder)
        for a in plan.assignments:
            for b in plan.assignments:
                if a.tensor == b.tensor or a.slot != b.slot:
                    continue
                # Live ranges in one slot must not overlap.
                assert a.end < b.start or b.end < a.start, (a, b)

    def test_slot_holds_its_largest_tensor(self, tiny_decoder):
        plan = plan_memory(tiny_decoder)
        for a in plan.assignments:
            assert plan.slot_sizes[a.slot] >= a.nbytes

    def test_graph_outputs_stay_live_to_the_end(self):
        g = chain_graph()
        plan = plan_memory(g)
        y = next(a for a in plan.assignments if a.tensor == "y")
        assert y.end == len(g.nodes)

    def test_decoder_peak_strictly_below_naive(self, tiny_decoder):
        plan = plan_memory(tiny_decoder)
        assert plan.arena_bytes < plan.naive_bytes
        assert plan.arena_bytes >= plan.peak_live_bytes
        assert plan.reuse_ratio > 1.0

    def test_weights_accounted_separately(self, tiny_decoder):
        plan = plan_memory(tiny_decoder)
        expected_weights = sum(
            tiny_decoder.tensor_nbytes(n)
            for n in tiny_decoder.const_inputs
        )
        assert plan.weight_bytes == expected_weights
        assert plan.input_bytes == (
            tiny_decoder.tensor_nbytes("x")
            + tiny_decoder.tensor_nbytes(ATTN_MASK)
        )

    def test_plan_is_deterministic(self, tiny_decoder):
        a, b = plan_memory(tiny_decoder), plan_memory(tiny_decoder)
        assert a.assignments == b.assignments
        assert a.slot_sizes == b.slot_sizes
        assert a.to_dict() == b.to_dict()

    def test_to_dict_payload(self, tiny_decoder):
        payload = plan_memory(tiny_decoder).to_dict()
        assert set(payload) == {
            "arena_bytes", "naive_bytes", "peak_live_bytes",
            "weight_bytes", "input_bytes", "slots", "tensors",
            "reuse_ratio", "utilization", "fragmentation",
        }
        # Every node output, the concat ``proj`` reads, and a copy of
        # each output view (the new K and V rows).
        assert payload["tensors"] == len(tiny_decoder.nodes) + 1 + 2

    def test_utilization_and_fragmentation(self, tiny_decoder):
        plan = plan_memory(tiny_decoder)
        payload = plan.to_dict()
        utilization = payload["utilization"]
        assert utilization == plan.peak_live_bytes / plan.arena_bytes
        assert payload["fragmentation"] == 1.0 - utilization
        assert 0.0 < utilization <= 1.0

    def test_perfectly_packed_chain_has_no_fragmentation(self):
        # The VA chain ping-pongs two equal-size slots, both live at the
        # peak: the arena is exactly the working set.
        payload = plan_memory(_linear(6)).to_dict()
        assert payload["utilization"] == 1.0
        assert payload["fragmentation"] == 0.0


class TestConcat:
    def _graph(self, reread: bool) -> ModelGraph:
        """x + b -> p; x + p -> q; c = [p ; q]; c + c -> y (twice as
        wide); with ``reread``, q + b -> z reads ``q`` after the concat
        too."""
        g = ModelGraph("concat")
        g.add_input("x", (64,))
        g.add_input("b", (64,))
        g.add_node("n0", va(64), {"A": "x", "B": "b"}, "p")
        g.add_node("n1", va(64), {"A": "x", "B": "p"}, "q")
        g.add_concat("c", ("p", "q"))
        g.add_node("n2", va(128), {"A": "c", "B": "c"}, "y")
        if reread:
            g.add_node("n3", va(64), {"A": "q", "B": "b"}, "z")
        return g

    def test_each_part_frees_at_the_concat(self):
        """The concat is a buffer of its own, defined where its last
        part is made (after ``n1``); the copy into it is each part's
        last read, so the next definition reuses a part's slot."""
        plan = plan_memory(self._graph(reread=False))
        slots = {a.tensor: a for a in plan.assignments}
        assert [a.tensor for a in plan.assignments] == ["p", "q", "c", "y"]
        assert (slots["p"].start, slots["p"].end) == (0, 1)
        assert (slots["q"].start, slots["q"].end) == (1, 1)
        assert (slots["c"].start, slots["c"].end) == (1, 2)
        assert (slots["y"].start, slots["y"].end) == (2, 3)
        assert slots["c"].nbytes == 128 * 4
        # p and q are dead when y is made: y takes one of their slots
        # and grows it to fit; c is live beside them while it is copied.
        assert slots["c"].slot not in (slots["p"].slot, slots["q"].slot)
        assert slots["y"].slot in (slots["p"].slot, slots["q"].slot)
        assert plan.naive_bytes == (64 + 64 + 128 + 128) * 4
        assert plan.peak_live_bytes == (64 + 64 + 128) * 4

    def test_a_part_read_again_lives_on(self):
        plan = plan_memory(self._graph(reread=True))
        slots = {a.tensor: a for a in plan.assignments}
        assert slots["p"].end == 1
        assert slots["q"].end == 3


class TestArenaStats:
    def test_shared_vocabulary(self):
        from repro.graph.memory import arena_stats

        stats = arena_stats(100, 75)
        assert stats == {"utilization": 0.75, "fragmentation": 0.25}

    def test_empty_arena_is_fully_utilized_by_convention(self):
        from repro.graph.memory import arena_stats

        assert arena_stats(0, 0) == {
            "utilization": 1.0, "fragmentation": 0.0,
        }
