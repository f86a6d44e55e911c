"""One PIM program for a layer's two projections.

GPT-J's parallel block sums both branches into one residual, ``y = x +
W_proj·attn + W_fc_proj·gelu(fc_pre)``, so the builder emits one
``proj`` MTV (d x 5d) over the column-concatenated weights ``[W_proj |
W_fc_proj]`` where it emitted ``attn_proj`` (d x d) and ``fc_proj``
(d x 4d) (TVM Relay's ``CombineParallelDense`` along the reduction
axis).  It reads ``proj_in``, the concat of the heads and the
``fc_pre`` view; its host prologue applies GELU to the last ``4d``
elements (a ``select`` passes the first ``d`` through) and its host
epilogue adds ``x``.  The reduction now runs over ``5d`` products, so
outputs move within the references' tolerance, not byte for byte.
These tests pin that what the fusion saves decomposes per layer into
one launch and the kernel, host, D2H and H2D deltas of the standalone
programs, and that the fused graph matches the reference under
``REPRO_SIM_MODE=verify``.
"""

import numpy as np
import pytest

import repro
from repro.cluster import CLUSTER_SIM
from repro.graph import GPTJ_SIM, compile_graph, gptj_model_graph, place
from repro.upmem.config import DEFAULT_CONFIG

from .conftest import TINY, proj_line_deltas_s

#: ``compile_graph(gptj_model_graph(config, 3, 8), policy).profile()
#: .steady_state_s`` in µs while ``attn_proj`` and ``fc_proj`` were two
#: programs (``mixed`` kept ``fc_proj``, tagged ``ffn``, on the host).
_TWO_PROJECTIONS_US = {
    (GPTJ_SIM.name, "upmem"): 1316.1077658452743,
    (GPTJ_SIM.name, "mixed"): 1174.4712065409972,
    (GPTJ_SIM.name, "cpu"): 622.4228571428573,
    (CLUSTER_SIM.name, "upmem"): 983.4138965651239,
    (CLUSTER_SIM.name, "mixed"): 800.3163893540117,
    (CLUSTER_SIM.name, "cpu"): 461.5268571428573,
}


def _steady_s(config, policy="upmem"):
    return compile_graph(
        gptj_model_graph(config, 3, 8), policy
    ).profile().steady_state_s


def test_proj_reads_the_concat_of_both_branches():
    g = gptj_model_graph(TINY, 1, 4)
    node = next(n for n in g.nodes if n.name == "L0.proj")
    d = TINY.d_model
    assert node.workload.shape == (d, 5 * d)
    assert node.inputs == {
        "A": "w_proj_cat_L0", "B": "proj_in_L0", "R": "x",
    }
    concat = g.concats["proj_in_L0"]
    assert concat.parts == ("attn_concat_L0", "fc_pre_L0")
    assert g.tensor_shape("proj_in_L0") == (5 * d,)
    assert node.tags == frozenset({"attn"})


def test_the_prologue_passes_the_attention_part_through():
    """GELU is a ``select`` over the operand: the first ``d`` elements
    cross as they are, the last ``4d`` as GELU's product."""
    node = next(
        n for n in gptj_model_graph(GPTJ_SIM, 1, 8).nodes
        if n.name == "L0.proj"
    )
    module = repro.compile(node.workload, params=node.params).lowered
    (prologue,) = module.host_pre
    assert f"select(G_i0 < {GPTJ_SIM.d_model}, B[G_i0], " in repr(prologue)
    assert {s.global_buffer.name for s in module.transfer("h2d")} == {"A", "G"}
    # 8 parts of 80 elements, in 16-element cache blocks that divide
    # them, on 32 row DPUs: a split grid holds at most 256 DPUs
    assert {k: node.params[k] for k in ("m_dpus", "k_dpus", "cache")} == {
        "m_dpus": 32, "k_dpus": 8, "cache": 16,
    }


class TestDecomposition:
    def test_a_layer_saves_one_launch_and_the_standalone_deltas(self):
        """Per layer: one 35 µs launch, the kernel delta (one 5d-long
        reduction over 32 x 8 DPUs in 16-element blocks for a d- and a
        4d-long one over 64 x 2 and 64 x 8 in 64-element blocks), the
        host delta (one fold and one residual add for two of each, the
        prologue over 5d elements for GELU over 4d), the D2H delta (one
        transfer for two, of 4 rows a DPU where each was of 2) and the
        H2D delta of the 5d floats that cross for the d and 4d that
        did."""
        deltas = proj_line_deltas_s(GPTJ_SIM, "upmem")
        assert deltas["launch"] == DEFAULT_CONFIG.launch_overhead_s == 35e-6
        assert deltas["kernel"] * 1e6 == pytest.approx(33.16, abs=0.01)
        assert deltas["host"] * 1e6 == pytest.approx(-0.09, abs=0.01)
        assert deltas["d2h"] * 1e6 == pytest.approx(4.00, abs=0.01)
        assert deltas["h2d"] * 1e6 == pytest.approx(0.49, abs=0.01)
        saving = sum(deltas.values())
        assert saving * 1e6 == pytest.approx(72.57, abs=0.01)

        exe = compile_graph(gptj_model_graph(GPTJ_SIM, 3, 8))
        layers = {}
        for cost in exe.profile().nodes:
            layer = cost.node.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + cost.total_s
        before = _TWO_PROJECTIONS_US[GPTJ_SIM.name, "upmem"] * 1e-6 / 3
        for total in layers.values():
            assert total == pytest.approx(before - saving, rel=1e-9)

    @pytest.mark.parametrize("policy", ["upmem", "mixed", "cpu"])
    @pytest.mark.parametrize("config", [GPTJ_SIM, CLUSTER_SIM],
                             ids=lambda c: c.name)
    def test_the_step_falls_by_three_layers_savings(self, config, policy):
        saving = sum(proj_line_deltas_s(config, policy).values())
        assert _steady_s(config, policy) == pytest.approx(
            _TWO_PROJECTIONS_US[config.name, policy] * 1e-6 - 3 * saving,
            rel=1e-9,
        )

    def test_the_upmem_step_is_about_1098_us(self):
        assert _steady_s(GPTJ_SIM) * 1e6 == pytest.approx(1098.40, abs=0.01)

    def test_cluster_sim_saves_about_47_us_a_layer(self):
        saving = sum(proj_line_deltas_s(CLUSTER_SIM, "upmem").values())
        assert saving * 1e6 == pytest.approx(47.31, abs=0.01)


class TestMixed:
    def test_every_node_is_attention_so_mixed_is_upmem(self):
        """``proj`` reads the attention output, so it is tagged ``attn``
        as ``qkv_fc`` is: no node is ``ffn``, and ``mixed`` places and
        prices the step as ``upmem`` does — on ``GPTJ_SIM`` it falls
        from 1 174.5 to 1 098.4 µs, on ``CLUSTER_SIM`` (whose host FC
        projection was cheaper than a PIM one) it rises from 800.3 to
        841.5 µs."""
        g = gptj_model_graph(GPTJ_SIM, 3, 8)
        assert {t.kind for t in place(g, "mixed").values()} == {"upmem"}
        for config in (GPTJ_SIM, CLUSTER_SIM):
            assert _steady_s(config, "mixed") == _steady_s(config, "upmem")


@pytest.mark.parametrize("policy", ["upmem", "mixed", "cpu"])
@pytest.mark.parametrize("config", [TINY, GPTJ_SIM], ids=lambda c: c.name)
def test_outputs_match_the_reference_under_verify(config, policy, monkeypatch):
    """The scalar interpreter checks every program's vector plan, the
    ``select`` prologue included, byte for byte; the fused step matches
    the NumPy reference within the tolerance ``perf`` checks graph
    outputs with."""
    monkeypatch.setenv("REPRO_SIM_MODE", "verify")
    g = gptj_model_graph(config, layers=2, capacity=8)
    inputs = g.random_inputs(9)
    inputs["attn_mask"][6:] = -np.inf
    want = g.reference_outputs(inputs)
    got = compile_graph(g, policy).run_tensors(inputs)
    assert list(got) == list(want)
    for name, ref in want.items():
        scale = float(np.max(np.abs(ref))) or 1.0
        assert np.max(np.abs(got[name] - ref)) / scale <= 1e-4, name
