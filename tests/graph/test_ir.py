"""Graph IR: construction, validation, ordering, identity."""

import numpy as np
import pytest

from repro.graph import GraphError, ModelGraph, gptj_decoder_graph
from repro.pipeline import workload_signature
from repro.workloads import mtv, va

from .conftest import TINY, chain_graph


def _params_mtv():
    return {
        "m_dpus": 4, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
        "host_threads": 1, "unroll": 0,
    }


class TestConstruction:
    def test_duplicate_node_name_rejected(self):
        g = ModelGraph()
        g.add_input("x", (8,))
        g.add_input("y2", (8,))
        g.add_node("n", va(8), {"A": "x", "B": "y2"}, "t1")
        with pytest.raises(GraphError, match="already defined"):
            g.add_node("n", va(8), {"A": "x", "B": "y2"}, "t2")

    def test_duplicate_tensor_rejected(self):
        g = ModelGraph()
        g.add_input("x", (8,))
        with pytest.raises(GraphError, match="already defined"):
            g.add_input("x", (8,))
        g.add_input("b", (8,))
        g.add_node("n", va(8), {"A": "x", "B": "b"}, "t")
        with pytest.raises(GraphError, match="already defined"):
            g.add_node("m", va(8), {"A": "x", "B": "b"}, "t")

    def test_undefined_tensor_caught_by_validate(self):
        g = ModelGraph()
        g.add_input("x", (8,))
        g.add_node("n", va(8), {"A": "x", "B": "ghost"}, "t")
        with pytest.raises(GraphError, match="undefined tensor 'ghost'"):
            g.validate()

    def test_shape_mismatch_caught(self):
        g = ModelGraph()
        g.add_input("x", (16,))
        g.add_input("b", (8,))
        g.add_node("n", va(8), {"A": "x", "B": "b"}, "t")
        with pytest.raises(GraphError, match="expects shape"):
            g.validate()

    def test_unbound_workload_input_caught(self):
        g = ModelGraph()
        g.add_input("x", (8,))
        g.add_node("n", va(8), {"A": "x"}, "t")
        with pytest.raises(GraphError, match="does not bind"):
            g.validate()

    def test_unknown_binding_name_caught(self):
        g = ModelGraph()
        g.add_input("x", (8,))
        g.add_input("b", (8,))
        g.add_node("n", va(8), {"A": "x", "B": "b", "Z": "x"}, "t")
        with pytest.raises(GraphError, match="unknown workload inputs"):
            g.validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="no nodes"):
            ModelGraph("empty").validate()


class TestOrdering:
    def test_forward_references_resolve(self):
        """Nodes may be added before their producers; topological order
        settles the schedule."""
        g = ModelGraph()
        g.add_input("x", (8,))
        g.add_input("b", (8,))
        g.add_node("late", va(8), {"A": "mid", "B": "b"}, "y")
        g.add_node("early", va(8), {"A": "x", "B": "b"}, "mid")
        g.validate()
        assert [n.name for n in g.topological_order()] == ["early", "late"]

    def test_cycle_detected(self):
        g = ModelGraph()
        g.add_input("b", (8,))
        g.add_node("p", va(8), {"A": "t2", "B": "b"}, "t1")
        g.add_node("q", va(8), {"A": "t1", "B": "b"}, "t2")
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_order_is_deterministic_and_insertion_stable(self, tiny_decoder):
        order1 = [n.name for n in tiny_decoder.topological_order()]
        order2 = [n.name for n in tiny_decoder.topological_order()]
        assert order1 == order2
        rebuilt = [
            n.name
            for n in gptj_decoder_graph(TINY, tokens=4).topological_order()
        ]
        assert order1 == rebuilt


class TestTensors:
    def test_outputs_are_unconsumed_tensors(self):
        g = chain_graph()
        assert g.output_names == ["y"]
        assert g.tensor_shape("y") == (16,)
        assert g.tensor_nbytes("t1") == 16 * 4

    def test_const_inputs_and_placeholders(self, tiny_decoder):
        assert "w_qkv" in tiny_decoder.const_inputs
        assert "x" not in tiny_decoder.const_inputs
        names = [t.name for t in tiny_decoder.inputs]
        assert names == tiny_decoder.input_names

    def test_reference_outputs_match_manual_chain(self):
        g = chain_graph()
        ins = g.random_inputs(3)
        out = g.reference_outputs(ins)["y"]
        want = ins["w2"] @ ((ins["w1"] @ ins["x"]) + ins["x2"])
        np.testing.assert_allclose(out, want, rtol=1e-5)


class TestSignature:
    def test_equal_graphs_share_signature(self):
        a = gptj_decoder_graph(TINY, tokens=4).structural_signature()
        b = gptj_decoder_graph(TINY, tokens=4).structural_signature()
        assert a == b

    def test_structure_changes_signature(self):
        base = gptj_decoder_graph(TINY, tokens=4)
        other_tokens = gptj_decoder_graph(TINY, tokens=8)
        assert (
            base.structural_signature()
            != other_tokens.structural_signature()
        )
        rewired = chain_graph()
        assert base.structural_signature() != rewired.structural_signature()

    def test_target_override_changes_signature(self):
        a, b = chain_graph(), chain_graph()
        b.nodes[1].target = "upmem"
        assert a.structural_signature() != b.structural_signature()

    def test_tags_change_signature(self):
        """Tags steer placement, placement picks the compiled program:
        tag-different graphs must never share a pool/batch key."""
        a, b = chain_graph(), chain_graph()
        b.nodes[1].tags = frozenset({"glue"})
        assert a.structural_signature() != b.structural_signature()

    def test_configured_target_override_never_aliases_kind(self):
        """A differently-configured Target instance of one kind is a
        different compile — same hardening as the serving pool's keys."""
        from repro.target import UpmemTarget
        from repro.upmem.config import UpmemConfig

        a, b = chain_graph(), chain_graph()
        a.nodes[0].target = UpmemTarget()
        b.nodes[0].target = UpmemTarget(config=UpmemConfig(n_ranks=2))
        assert a.structural_signature() != b.structural_signature()

    def test_workload_signature_delegates_to_graph(self):
        g = chain_graph()
        assert workload_signature(g) == g.structural_signature()
        assert workload_signature(g)[0] == "modelgraph"
        # Plain workloads keep the classic tuple shape.
        assert workload_signature(mtv(8, 8))[0] == "mtv"
