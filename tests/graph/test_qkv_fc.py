"""One PIM program for a layer's QKV and FC-up matvecs.

``qkv_gen`` (3d x d) and ``fc`` (4d x d) both contract the hidden state,
so the builder emits one ``qkv_fc`` MTV over their row-stacked weights
(TVM Relay's ``CombineParallelDense``), and GELU, which was ``fc``'s
host epilogue, runs as ``fc_proj``'s host prologue over the ``fc_pre``
view (``fc_proj`` is itself fused into ``proj`` since, which
``tests/graph/test_proj_fusion.py`` decomposes).  These tests pin that
the fusion moves no output byte, and that what it saves decomposes per
layer into one launch and the kernel, host, D2H and H2D deltas of the
standalone programs.
"""

import numpy as np
import pytest

import repro
from repro.cluster import CLUSTER_SIM
from repro.graph import (
    GPTJ_SIM,
    compile_graph,
    gptj_layer_io,
    gptj_model_graph,
    place,
    small_grid_params,
)
from repro.upmem.config import DEFAULT_CONFIG
from repro.workloads import fc_mtv

from .conftest import TINY, fused_line_deltas_s, proj_line_deltas_s

#: ``compile_graph(gptj_model_graph(GPTJ_SIM, 3, 8)).profile()
#: .steady_state_s`` in µs while ``qkv_gen`` and ``fc`` were two
#: programs, per policy.
_TWO_PROGRAMS_US = {
    "upmem": 1540.1163027782616,
    "mixed": 1228.705827398732,
    "cpu": 712.5325714285715,
}


def _node(graph, role, layer=0):
    return next(n for n in graph.nodes if n.name == f"L{layer}.{role}")


@pytest.mark.parametrize("config", [GPTJ_SIM, CLUSTER_SIM, TINY],
                         ids=lambda c: c.name)
def test_slices_equal_the_separate_programs_byte_for_byte(config):
    """At the pinned grids, both fused and separate split the rows over
    the same DPUs' tasklets and the reduction the same ways, so every
    row keeps its reduction order: ``[0:3d]`` is ``qkv_gen``'s output
    and ``[3d:7d]`` ``fc``'s, on the same weight rows."""
    d = config.d_model
    node = _node(gptj_model_graph(config, 1, 8), "qkv_fc")
    inputs = node.workload.random_inputs(7)
    (fused,) = repro.compile(node.workload, params=node.params).run(inputs)
    for name, rows in (("qkv_gen", slice(0, 3 * d)), ("fc", slice(3 * d, 7 * d))):
        wl = fc_mtv(config, name)
        params = small_grid_params(wl)
        assert params["k_dpus"] == node.params["k_dpus"], name
        (alone,) = repro.compile(wl, params=params).run(
            {"A": inputs["A"][rows], "B": inputs["B"]}
        )
        assert fused[rows].tobytes() == alone.tobytes(), name


def test_the_layer_weights_keep_their_bytes():
    io = gptj_layer_io(GPTJ_SIM, 0)
    d = GPTJ_SIM.d_model
    assert [shape for _, shape in io.weights] == [(7 * d, d), (d, 5 * d)]
    assert sum(m * k for _, (m, k) in io.weights) == 12 * d * d


class TestDecomposition:
    def test_a_layer_saves_one_launch_and_the_standalone_deltas(self):
        """Per layer: one 35 µs launch, the kernel delta (one 7d-row
        kernel for a 3d- and a 4d-row one), no host delta (the two
        rfactor folds are one; GELU moved to ``fc_proj`` at the same
        price), the D2H delta of one transfer for two and the H2D share
        of x that crosses once."""
        deltas = fused_line_deltas_s(GPTJ_SIM, "upmem")
        assert deltas["launch"] == DEFAULT_CONFIG.launch_overhead_s == 35e-6
        assert deltas["kernel"] * 1e6 == pytest.approx(35.39, abs=0.01)
        assert deltas["host"] == pytest.approx(0.0, abs=1e-12)
        assert deltas["d2h"] * 1e6 == pytest.approx(4.0, abs=0.01)
        assert deltas["h2d"] * 1e6 == pytest.approx(0.28, abs=0.01)
        saving = sum(deltas.values())
        assert saving * 1e6 == pytest.approx(74.67, abs=0.01)

        exe = compile_graph(gptj_model_graph(GPTJ_SIM, 3, 8))
        layers = {}
        for cost in exe.profile().nodes:
            layer = cost.node.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + cost.total_s
        proj = sum(proj_line_deltas_s(GPTJ_SIM, "upmem").values())
        for total in layers.values():
            assert total == pytest.approx(
                _TWO_PROGRAMS_US["upmem"] * 1e-6 / 3 - saving - proj,
                rel=1e-9,
            )

    @pytest.mark.parametrize("policy", ["upmem", "mixed", "cpu"])
    def test_the_step_falls_by_three_layers_savings(self, policy):
        """... and by three layers of what ``proj`` saves."""
        steady = compile_graph(
            gptj_model_graph(GPTJ_SIM, 3, 8), policy
        ).profile().steady_state_s
        saving = sum(fused_line_deltas_s(GPTJ_SIM, policy).values())
        proj = sum(proj_line_deltas_s(GPTJ_SIM, policy).values())
        assert saving > 0
        assert steady == pytest.approx(
            _TWO_PROGRAMS_US[policy] * 1e-6 - 3 * (saving + proj), rel=1e-9
        )


def test_mixed_runs_the_fc_up_rows_on_pim():
    """The fused node makes Q/K/V, so it is tagged ``attn``: ``mixed``
    keeps it on PIM, FC-up rows included."""
    g = gptj_model_graph(GPTJ_SIM, 3, 8)
    placement = place(g, "mixed")
    assert placement["L0.qkv_fc"].kind == "upmem"
    assert _node(g, "qkv_fc").tags == frozenset({"attn"})


def test_outputs_match_the_reference_under_every_policy():
    g = gptj_model_graph(TINY, layers=2, capacity=8)
    inputs = g.random_inputs(9)
    inputs["attn_mask"][6:] = -np.inf
    want = g.reference_outputs(inputs)
    for policy in ("upmem", "mixed", "cpu"):
        got = compile_graph(g, policy).run_tensors(inputs)
        for name, ref in want.items():
            scale = float(np.max(np.abs(ref))) or 1.0
            assert np.max(np.abs(got[name] - ref)) / scale <= 1e-4, name
