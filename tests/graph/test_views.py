"""Graph views: zero-flop slices and reshapes that alias another tensor.

A view is a graph tensor with no producing node and no buffer.  These
tests pin what every consumer of the graph owes it: a run binds it as a
NumPy view of its base (equal to the reference, sharing memory) and
copies it out when it is a graph output, the memory planner keeps the
base alive for the view's readers and gives an output view's copy a
buffer of its own, the
signature tells views apart, bad declarations name the view, and the
cost model prices a view as the host glue it replaced minus that glue's
compute line (as it does the glue that became host epilogues, minus
the host lines the epilogues add).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import te
from repro.graph import (
    GPTJ_SIM,
    GraphError,
    ModelGraph,
    compile_graph,
    gptj_model_graph,
    plan_memory,
)
from repro.workloads import va

from .conftest import (
    TINY, cpu_line_s, epilogue_lines_s, fused_line_deltas_s, host_glue,
    proj_line_deltas_s, removed_glue_s,
)


def _viewed(n: int = 16) -> ModelGraph:
    """x + b -> t; ``lo``/``hi`` view t's halves, ``hi`` read again as a
    (2, n/4) block; ``use`` adds ``lo`` to c.  ``t`` is read only by
    views, so it is not an output; ``sq`` and ``out`` are."""
    g = ModelGraph("viewed")
    g.add_input("x", (n,))
    g.add_input("b", (n,))
    g.add_input("c", (n // 2,))
    g.add_node("add", va(n), {"A": "x", "B": "b"}, "t")
    g.add_view("lo", "t", 0, (n // 2,))
    g.add_view("hi", "t", n // 2, (n // 2,))
    g.add_view("sq", "hi", 0, (2, n // 4))
    g.add_node("use", va(n // 2), {"A": "lo", "B": "c"}, "out")
    g.validate()
    return g


class TestRun:
    @pytest.mark.parametrize("policy", ["upmem", "cpu"])
    def test_run_equals_reference_bitwise(self, policy):
        g = _viewed()
        inputs = g.random_inputs(3)
        got = compile_graph(g, policy=policy).run_tensors(inputs)
        want = g.reference_outputs(inputs)
        assert list(got) == list(want) == ["sq", "out"]
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
            assert got[name].shape == want[name].shape

    def test_views_share_their_base_memory(self):
        """... inside a run; a view that is a graph output is copied
        out, so what the caller keeps holds no base alive."""
        g = _viewed()
        g.add_view("flat", "t", 0, (16,))  # t itself, as an output
        inputs = g.random_inputs(4)
        env = g.reference_outputs(inputs, all_tensors=True)
        for name in ("lo", "hi", "sq", "flat"):
            assert np.shares_memory(env[name], env["t"]), name
        got = compile_graph(g).run_tensors(inputs)
        assert list(got) == ["sq", "out", "flat"]  # declaration order
        assert not np.shares_memory(got["sq"], got["flat"])
        assert got["sq"].base is None and got["flat"].base is None
        assert got["sq"].tobytes() == got["flat"][8:].tobytes()

    def test_outputs_and_shapes(self):
        g = _viewed()
        assert g.output_names == ["sq", "out"]  # t: only views read it
        assert g.tensor_shape("sq") == (2, 4)
        assert g.tensor_nbytes("hi") == 8 * 4
        assert g.storage("sq") == "t" and g.storage("x") == "x"
        assert g.producer("lo") is None
        assert len(g) == 2

    def test_view_of_an_input(self):
        """A view over an external input binds before any node runs."""
        g = ModelGraph("input-view")
        g.add_input("x", (8,))
        g.add_input("b", (4,))
        g.add_view("x_hi", "x", 4, (4,))
        g.add_node("add", va(4), {"A": "x_hi", "B": "b"}, "y")
        order = g.topological_order()
        assert g.view_schedule(order) == [[g.views["x_hi"]], []]
        inputs = g.random_inputs(1)
        y = compile_graph(g, policy="cpu").run_tensors(inputs)["y"]
        np.testing.assert_array_equal(y, inputs["x"][4:] + inputs["b"])
        assert y.tobytes() == g.reference_outputs(inputs)["y"].tobytes()

    def test_view_of_a_view(self):
        g = _viewed()
        inputs = g.random_inputs(5)
        env = g.reference_outputs(inputs, all_tensors=True)
        t = inputs["x"] + inputs["b"]
        np.testing.assert_array_equal(env["sq"], t[8:].reshape(2, 4))
        got = compile_graph(g).run_tensors(inputs)["sq"]
        assert got.tobytes() == env["sq"].tobytes()

    def test_order_waits_for_the_base_producer(self):
        """A node that reads a view runs after the view's base producer,
        even when it was added first (a forward reference)."""
        g = ModelGraph("forward")
        g.add_input("x", (8,))
        g.add_input("b", (8,))
        g.add_input("c", (4,))
        g.add_node("use", va(4), {"A": "v", "B": "c"}, "out")
        g.add_node("make", va(8), {"A": "x", "B": "b"}, "t")
        g.add_view("v", "t", 2, (4,))
        assert [n.name for n in g.topological_order()] == ["make", "use"]
        g.validate()


class TestMemory:
    def test_no_slot_and_base_outlives_readers(self):
        g = _viewed()
        plan = plan_memory(g)
        order = [n.name for n in g.topological_order()]
        slots = {a.tensor: a for a in plan.assignments}
        # Views hold no buffer; the output sq's copy does.
        assert set(slots) == {"t", "out", "sq"}
        # t is read (through lo) by "use"; the output sq is copied out
        # of it when it is made, so it does not keep t alive.
        assert slots["t"].end == order.index("use")
        assert (slots["sq"].start, slots["sq"].end) == (0, len(order))
        assert slots["sq"].nbytes == 8 * 4
        assert plan.naive_bytes == (16 + 8 + 8) * 4

    def test_base_lives_to_the_views_last_reader(self):
        g = ModelGraph("chain")
        g.add_input("x", (8,))
        g.add_input("b", (8,))
        g.add_input("c", (4,))
        g.add_node("make", va(8), {"A": "x", "B": "b"}, "t")
        g.add_view("v", "t", 4, (4,))
        g.add_node("n1", va(4), {"A": "c", "B": "c"}, "u1")
        g.add_node("n2", va(4), {"A": "u1", "B": "c"}, "u2")
        g.add_node("late", va(4), {"A": "v", "B": "u2"}, "y")
        plan = plan_memory(g)
        slots = {a.tensor: a for a in plan.assignments}
        assert set(slots) == {"t", "u1", "u2", "y"}
        assert slots["t"].end == 3  # "late", not "make"
        # Nothing defined while t lives shares its slot.
        for a in plan.assignments:
            if a.tensor != "t" and a.slot == slots["t"].slot:
                assert a.start > slots["t"].end


class TestIdentity:
    def test_offset_separates_signatures(self):
        def graph(offset):
            g = ModelGraph("sig")
            g.add_input("x", (8,))
            g.add_input("b", (8,))
            g.add_node("make", va(8), {"A": "x", "B": "b"}, "t")
            g.add_view("v", "t", offset, (4,))
            return g

        assert graph(0).structural_signature() == graph(0).structural_signature()
        assert graph(0).structural_signature() != graph(4).structural_signature()

    def test_shape_separates_signatures(self):
        def graph(shape):
            g = ModelGraph("sig")
            g.add_input("x", (8,))
            g.add_view("v", "x", 0, shape)
            return g.structural_signature()

        assert graph((2, 4)) != graph((4, 2)) != graph((8,))


class TestErrors:
    @pytest.fixture
    def g(self):
        g = ModelGraph("bad")
        g.add_input("x", (8,))
        g.add_input("b", (8,))
        g.add_node("make", va(8), {"A": "x", "B": "b"}, "t")
        return g

    def test_unknown_base(self, g):
        with pytest.raises(GraphError, match="view 'v'.*unknown base tensor 'ghost'"):
            g.add_view("v", "ghost", 0, (4,))

    @pytest.mark.parametrize("offset,shape", [(-1, (4,)), (5, (4,)), (0, (9,)),
                                              (0, (3, 3))])
    def test_out_of_range(self, g, offset, shape):
        with pytest.raises(GraphError, match="view 'v'.*out of range of 't'"):
            g.add_view("v", "t", offset, shape)

    @pytest.mark.parametrize("shape", [(), (0,), (-2, -2), (2, 0), (2.0,)])
    def test_not_a_contiguous_block(self, g, shape):
        with pytest.raises(GraphError, match="view 'v'.*not a contiguous block"):
            g.add_view("v", "t", 0, shape)

    @pytest.mark.parametrize("name", ["x", "t", "w"])
    def test_name_collision(self, g, name):
        g.add_view("w", "t", 0, (4,))
        with pytest.raises(GraphError, match=f"view '{name}'.*already defined"):
            g.add_view(name, "t", 0, (4,))

    def test_a_node_or_input_cannot_take_a_views_name(self, g):
        g.add_view("w", "t", 0, (8,))
        with pytest.raises(GraphError, match="'w' is already defined"):
            g.add_node("again", va(8), {"A": "x", "B": "b"}, "w")
        with pytest.raises(GraphError, match="'w' is already defined"):
            g.add_input("w", (8,))

    def test_a_node_reading_a_view_checks_its_shape(self, g):
        g.add_view("v", "t", 0, (2, 2))
        g.add_input("c", (4,))
        g.add_node("use", va(4), {"A": "v", "B": "c"}, "y")
        with pytest.raises(GraphError, match="tensor 'v' has shape"):
            g.validate()


@st.composite
def _view_cases(draw):
    """(base length, offset, 1-D size, reshape of it, whether a node
    reads the 1-D view, whether the reshape is declared)."""
    n = draw(st.integers(1, 48))
    size = draw(st.integers(1, n))
    offset = draw(st.integers(0, n - size))
    divisors = [k for k in range(1, size + 1) if size % k == 0]
    rows = draw(st.sampled_from(divisors))
    return n, offset, size, (rows, size // rows), draw(st.booleans()), draw(
        st.booleans()
    )


@settings(max_examples=40, deadline=None)
@given(_view_cases())
def test_random_views_run_like_the_reference_and_plan_soundly(case):
    n, offset, size, shape, read, reshape = case
    g = ModelGraph("random")
    g.add_input("x", (n,))
    g.add_input("b", (n,))
    g.add_input("c", (size,))
    g.add_node("make", va(n), {"A": "x", "B": "b"}, "t")
    g.add_node("other", va(size), {"A": "c", "B": "c"}, "u")
    g.add_view("v", "t", offset, (size,))
    if reshape:
        g.add_view("r", "v", 0, shape)
    if read:
        g.add_node("use", va(size), {"A": "v", "B": "u"}, "y")
    g.validate()

    inputs = g.random_inputs(n + offset)
    got = compile_graph(g, policy="cpu").run_tensors(inputs)
    want = g.reference_outputs(inputs)
    assert list(got) == list(want) == g.output_names
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    t = inputs["x"] + inputs["b"]
    env = g.reference_outputs(inputs, all_tensors=True)
    np.testing.assert_array_equal(env["v"], t[offset:offset + size])
    assert np.shares_memory(env["v"], env["t"])

    order = g.topological_order()
    position = {node.name: i for i, node in enumerate(order)}
    plan = plan_memory(g)
    slots = {a.tensor: a for a in plan.assignments}
    copies = [view for view in g.views if view in g.output_names]
    assert set(slots) == {node.output for node in g.nodes} | set(copies)
    base = slots["t"]
    for view in g.views:
        for reader in g.consumers(view):
            assert base.end >= position[reader.name]
    for view in copies:
        assert (slots[view].start, slots[view].end) == (
            base.start, len(order)
        )
    readers = [position[r.name] for v in g.views for r in g.consumers(v)]
    assert base.end == max(readers, default=base.start)
    for a in plan.assignments:
        for b in plan.assignments:
            if a.tensor != b.tensor and a.slot == b.slot:
                assert a.end < b.start or b.end < a.start, (a, b)
    assert plan.naive_bytes == sum(
        g.tensor_nbytes(name)
        for name in [node.output for node in g.nodes] + copies
    )


# ---------------------------------------------------------------------------
# pricing: a view is the glue node it replaced, minus its compute line
# ---------------------------------------------------------------------------

#: ``steady_state_s`` in µs of ``gptj_model_graph(GPTJ_SIM, layers,
#: capacity)``, per (shape, policy), before the zero-flop glue became
#: views: the 3-layer, 8-slot step had 42 nodes then and has 12 now that
#: the glue is views, a concat, host epilogues and a host prologue,
#: ``qkv_gen`` and ``fc`` are one program and so are ``attn_proj`` and
#: ``fc_proj``; fig17's 1-layer, 16-slot step had 14 and has 4.
_BEFORE_US = {
    ((3, 8), "upmem"): 2254.6580170639763,
    ((3, 8), "cpu"): 1435.4400000000005,
    ((3, 8), "mixed"): 1950.0498273987325,
    ((1, 16), "upmem"): 759.1708351533521,
    ((1, 16), "cpu"): 479.1040000000001,
    ((1, 16), "mixed"): 657.634771931604,
}

#: The priced steps: the 3-layer decode step and fig17's one layer.
_SHAPES = pytest.mark.parametrize(
    "shape", [(3, 8), (1, 16)], ids=["L3-c8", "L1-c16"]
)


def _graph(shape=(3, 8)):
    return gptj_model_graph(GPTJ_SIM, *shape)


def _removed_glue_s(shape) -> float:
    """What the host charged for the glue nodes the views and the host
    epilogues replaced: the same workloads, priced by the cpu target."""
    layers, capacity = shape
    d, heads, hd = GPTJ_SIM.d_model, GPTJ_SIM.n_heads, GPTJ_SIM.head_dim

    def price(in_shape, out_shape):
        return cpu_line_s(host_glue([in_shape], out_shape, flops=0.0))

    per_layer = (
        price((3 * d,), (heads, hd)) + price((heads, hd), (d,))
        + 2 * price((3 * d,), (d,))
    )
    return layers * (per_layer + removed_glue_s(GPTJ_SIM, capacity))


class TestPricing:
    @pytest.mark.parametrize("policy", ["upmem", "cpu", "mixed"])
    @_SHAPES
    def test_the_step_falls_by_the_removed_compute_lines(self, shape, policy):
        exe = compile_graph(_graph(shape), policy=policy)
        profile = exe.profile()
        assert profile.steady_state_s == pytest.approx(
            sum(cost.total_s for cost in profile.nodes), rel=1e-12
        )
        want = (
            _BEFORE_US[shape, policy] * 1e-6 - _removed_glue_s(shape)
            + sum(epilogue_lines_s(exe).values())
            - shape[0] * sum(fused_line_deltas_s(GPTJ_SIM, policy).values())
            - shape[0] * sum(
                proj_line_deltas_s(GPTJ_SIM, policy, glue=False).values()
            )
        )
        assert profile.steady_state_s == pytest.approx(want, rel=1e-9)

    def test_three_layer_step_is_about_1098_us(self):
        profile = compile_graph(_graph()).profile()
        assert len(profile.nodes) == 12
        assert profile.steady_state_s * 1e6 == pytest.approx(1098.4, abs=0.05)

    @pytest.mark.parametrize("policy", ["upmem", "mixed"])
    @_SHAPES
    def test_crossings_stay_where_the_glue_was(self, shape, policy):
        """The views and the concat sit on the host: the PIM node a view
        reads from still hands its output back, and a PIM node reading a
        view or the concat still receives it."""
        profile = compile_graph(_graph(shape), policy=policy).profile()
        by_op = {}
        for cost in profile.nodes:
            by_op.setdefault(cost.node.split(".")[-1], []).append(cost)
        for name in ("qkv_fc", "attn_value"):
            assert all(c.crossing_out and c.d2h_s > 0 for c in by_op[name])
        for name in ("attn_score", "proj"):
            assert all(c.crossing_in and c.h2d_s > 0 for c in by_op[name])

    def test_cpu_placement_has_no_transfers(self):
        profile = compile_graph(_graph(), policy="cpu").profile()
        assert all(
            c.h2d_s == c.d2h_s == 0.0 and c.target == "cpu"
            for c in profile.nodes
        )


def test_tiny_model_graph_outputs_alias_the_fused_qkv():
    """The k/v rows a decode engine appends, the query and the FC
    pre-activation are views of ``qkv_fc``."""
    g = gptj_model_graph(TINY, layers=2, capacity=4)
    env = g.reference_outputs(g.random_inputs(2), all_tensors=True)
    for layer in range(2):
        for name in ("k_new", "v_new", "q", "fc_pre"):
            assert np.shares_memory(
                env[f"{name}_L{layer}"], env[f"qkv_fc_L{layer}"]
            ), name
