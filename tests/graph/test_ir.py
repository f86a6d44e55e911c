"""Graph IR: construction, validation, ordering, identity."""

import numpy as np
import pytest

from repro.graph import GraphError, ModelGraph, compile_graph, gptj_model_graph
from repro.workloads import va

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
            for n in gptj_model_graph(TINY, 1, 4).topological_order()
        ]
        assert order1 == rebuilt


class TestTensors:
    def test_outputs_are_unconsumed_tensors(self):
        g = chain_graph()
        assert g.output_names == ["y"]
        assert g.tensor_shape("y") == (16,)
        assert g.tensor_nbytes("t1") == 16 * 4

    def test_const_inputs(self, tiny_decoder):
        assert "w_qkv_fc_L0" in tiny_decoder.const_inputs
        assert "x" not in tiny_decoder.const_inputs
        assert set(tiny_decoder.const_inputs) < set(tiny_decoder.input_names)

    def test_reference_outputs_match_manual_chain(self):
        g = chain_graph()
        ins = g.random_inputs(3)
        out = g.reference_outputs(ins)["y"]
        want = ins["w2"] @ ((ins["w1"] @ ins["x"]) + ins["x2"])
        np.testing.assert_allclose(out, want, rtol=1e-5)


class TestSignature:
    def test_equal_graphs_share_signature(self):
        a = gptj_model_graph(TINY, 1, 4).structural_signature()
        b = gptj_model_graph(TINY, 1, 4).structural_signature()
        assert a == b

    def test_structure_changes_signature(self):
        base = gptj_model_graph(TINY, 1, 4)
        other_tokens = gptj_model_graph(TINY, 1, 8)
        assert (
            base.structural_signature()
            != other_tokens.structural_signature()
        )
        rewired = chain_graph()
        assert base.structural_signature() != rewired.structural_signature()

    def test_tags_change_signature(self):
        """Tags steer placement, placement picks the compiled program:
        tag-different graphs must never share an identity."""
        a, b = chain_graph(), chain_graph()
        b.nodes[1].tags = frozenset({"glue"})
        assert a.structural_signature() != b.structural_signature()


def _concat_graph(parts=("lo", "hi")) -> ModelGraph:
    """x + b -> t; ``lo``/``hi`` view t's halves; ``c`` lays ``parts``
    end to end; c + b -> y."""
    g = ModelGraph("concat")
    g.add_input("x", (16,))
    g.add_input("b", (16,))
    g.add_node("add", va(16), {"A": "x", "B": "b"}, "t")
    g.add_view("lo", "t", 0, (8,))
    g.add_view("hi", "t", 8, (8,))
    g.add_concat("c", parts)
    g.add_node("use", va(16), {"A": "c", "B": "b"}, "y")
    return g


class TestConcat:
    def test_binds_one_copy_of_its_parts(self):
        g = _concat_graph(("hi", "lo"))
        ins = g.random_inputs(1)
        env = g.reference_outputs(ins, all_tensors=True)
        t = ins["x"] + ins["b"]
        np.testing.assert_array_equal(env["c"], np.concatenate([t[8:], t[:8]]))
        assert not np.shares_memory(env["c"], env["t"])
        got = compile_graph(g, "cpu").run_tensors(ins)
        assert got["y"].tobytes() == env["y"].tobytes()
        assert g.output_names == ["y"]
        assert (g.tensor_shape("c"), g.tensor_nbytes("c")) == ((16,), 64)
        assert g.producer("c") is None and g.storage("c") == "c"

    def test_a_reader_waits_for_every_part(self):
        """``use`` is added before the node making a part: it still runs
        after it."""
        g = ModelGraph("late")
        g.add_input("x", (8,))
        g.add_input("b", (16,))
        g.add_node("first", va(8), {"A": "x", "B": "x"}, "p")
        g.add_input("q", (8,))
        g.add_concat("c", ("p", "q"))
        g.add_view("c_view", "c", 0, (16,))
        g.add_node("use", va(16), {"A": "c_view", "B": "b"}, "y")
        assert [n.name for n in g.topological_order()] == ["first", "use"]
        schedule = g.view_schedule(g.topological_order())
        assert [[a.name for a in bound] for bound in schedule] == [
            [], ["c", "c_view"], [],
        ]

    def test_a_concat_of_inputs_is_bound_first(self):
        g = ModelGraph("inputs")
        g.add_input("x", (8,))
        g.add_input("z", (8,))
        g.add_input("b", (16,))
        g.add_concat("c", ("x", "z"))
        g.add_node("use", va(16), {"A": "c", "B": "b"}, "y")
        order = g.topological_order()
        assert [a.name for a in g.view_schedule(order)[0]] == ["c"]
        ins = g.random_inputs(2)
        want = np.concatenate([ins["x"], ins["z"]]) + ins["b"]
        got = compile_graph(g, "cpu").run_tensors(ins)["y"]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "name,parts,match",
        [
            ("c2", ("t2d",), "not a 1-D one"),
            ("c", ("lo", "hi"), "already defined"),
            ("lo", ("hi",), "already defined"),
            ("c2", ("lo", "nope"), "unknown part 'nope'"),
            ("c2", (), "no parts"),
        ],
    )
    def test_validation(self, name, parts, match):
        g = _concat_graph()
        g.add_view("t2d", "t", 0, (4, 4))
        with pytest.raises(GraphError, match=match):
            g.add_concat(name, parts)

    @pytest.mark.parametrize("parts", [("lo",), ("lo", "hi", "lo")])
    def test_a_reader_needs_the_parts_to_sum_to_its_input(self, parts):
        """The parts' sizes are the concat's: a node expecting another
        size fails validation, naming both shapes."""
        with pytest.raises(GraphError, match=r"expects shape \(16,\)"):
            _concat_graph(parts).validate()

    def test_part_order_separates_signatures(self):
        """Two graphs that differ only in the order of a concat's parts
        compute different things: they must not share a pool or replan
        identity."""
        a, b = _concat_graph(("lo", "hi")), _concat_graph(("hi", "lo"))
        assert a.structural_signature() != b.structural_signature()
        assert (
            a.structural_signature()
            == _concat_graph(("lo", "hi")).structural_signature()
        )
