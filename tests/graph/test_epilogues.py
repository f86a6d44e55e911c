"""The GPT-J glue as host epilogues and a host prologue of the
programs beside it.

The masked, scaled softmax runs after ``attn_score``'s MMTV, the two
residual adds after ``attn_proj``'s and ``fc_proj``'s folds, and GELU
before ``fc_proj``'s kernel, over the ``fc_pre`` view of the fused
``qkv_fc`` vector: a layer is five nodes.  These tests pin what the
fusion may and may not move: the transfer and staging lines of every
PIM node but ``qkv_fc`` are the ones the unfused graph charged, and the
step falls by the four glue compute lines per layer minus the host
lines the fused programs gain, and by what one ``qkv_fc`` program saves
over ``qkv_gen`` and ``fc``.
"""

import numpy as np
import pytest

import repro
from repro.graph import GPTJ_SIM, compile_graph, gptj_model_graph, place

from .conftest import TINY, epilogue_lines_s, fused_line_deltas_s, removed_glue_s

#: Per node role of ``gptj_model_graph(GPTJ_SIM, 3, 8)``, the
#: ``(h2d_s, d2h_s, staging_s)`` the unfused graph (30 nodes) charged
#: its PIM nodes, the same on every layer and under ``upmem`` and
#: ``mixed`` (which keeps ``fc_proj`` on the host).  ``fc_proj``'s H2D is
#: the same 4d floats whether they arrive as ``fc``'s GELU output or as
#: its own prologue's product.  ``qkv_fc`` is no unfused node: its line
#: is pinned as measured when it replaced ``qkv_gen`` and ``fc``.
_PARENT_TRANSFERS = {
    "qkv_fc": (9.033361619993677e-08, 2.8401702127659573e-05, 8.093892011514334e-05),
    "attn_score": (2.3464013266998343e-06, 4.871489361702127e-06, 1.8771210613598675e-05),
    "attn_value": (4.0835820895522383e-07, 5.742978723404255e-06, 1.3067462686567162e-05),
    "attn_proj": (6.281337498553743e-07, 7.485957446808511e-06, 8.040111998148791e-05),
    "fc_proj": (6.281337498553743e-07, 7.485957446808511e-06, 8.040111998148791e-05),
}

#: ``fc_proj``'s ``h2d_s`` at the commit before ``qkv_fc``, when ``fc``'s
#: GELU epilogue made its operand on the host.
_FC_PROJ_H2D_S = 6.281337498553743e-07

#: One layer's steady cost (µs) in the unfused graph, per policy.
_PARENT_LAYER_US = {
    "upmem": 631.0406723546586,
    "mixed": 529.5046091329106,
    "cpu": 357.968,
}


def _model(policy="upmem"):
    return compile_graph(gptj_model_graph(GPTJ_SIM, 3, 8), policy=policy)


def _by_layer(costs):
    layers = {}
    for cost in costs:
        layer, role = cost.node.split(".")
        layers.setdefault(layer, {})[role] = cost
    return layers


class TestShape:
    def test_three_layer_step_is_fifteen_upmem_nodes(self):
        g = gptj_model_graph(GPTJ_SIM, 3, 8)
        assert len(g) == 15
        assert {t.kind for t in place(g).values()} == {"upmem"}
        assert [n.name for n in g.nodes[:5]] == [
            "L0.qkv_fc", "L0.attn_score", "L0.attn_value", "L0.attn_proj",
            "L0.fc_proj",
        ]

    def test_fused_programs_start_and_end_in_host_statements(self):
        exe = _model()
        modules = {
            node.name.split(".")[1]: exe._exes[node.name][0].lowered
            for node in exe.graph.nodes if node.name.startswith("L0.")
        }
        # softmax: row max, exp, row sum, quotient; the FC nodes: the
        # rfactor fold, then the residual add; GELU before fc_proj's
        # kernel.
        counts = {
            role: (len(m.host_pre), len(m.host_post))
            for role, m in modules.items()
        }
        assert counts == {
            "qkv_fc": (0, 1), "attn_score": (0, 4), "attn_value": (0, 0),
            "attn_proj": (0, 2), "fc_proj": (1, 2),
        }
        on_dpus = {
            role: {s.global_buffer.name for s in m.transfer("h2d")}
            for role, m in modules.items()
        }
        # The mask and the residual operands never cross, nor GELU's
        # operand: its product does.
        assert on_dpus["attn_score"] == on_dpus["attn_proj"] == {"A", "B"}
        assert on_dpus["fc_proj"] == {"A", "G"}


class TestTransfers:
    @pytest.mark.parametrize("policy", ["upmem", "mixed"])
    def test_every_pim_line_is_the_unfused_graphs(self, policy):
        for layer in _by_layer(_model(policy).profile().nodes).values():
            for role, cost in layer.items():
                if cost.target == "cpu":
                    assert policy == "mixed" and role == "fc_proj"
                    continue
                assert (cost.h2d_s, cost.d2h_s, cost.staging_s) == pytest.approx(
                    _PARENT_TRANSFERS[role], rel=1e-12
                ), role

    def test_output_made_on_the_host_pays_its_d2h(self):
        """``qkv_fc``'s output comes off the host fold (and is viewed):
        it pays the D2H, and ``fc_proj``, whose kernel reads the product
        of its host prologue over the ``fc_pre`` view, the H2D."""
        layer = _by_layer(_model().profile().nodes)["L1"]
        assert layer["qkv_fc"].crossing_out and layer["qkv_fc"].d2h_s > 0
        assert layer["fc_proj"].crossing_in and layer["fc_proj"].h2d_s > 0

    def test_fc_proj_h2d_is_the_parents(self):
        """The same 4d floats cross as before the fusion, now made by
        ``fc_proj``'s own GELU prologue: its H2D line is the parent's,
        float for float, on every layer."""
        for layer in _by_layer(_model().profile().nodes).values():
            assert layer["fc_proj"].h2d_s == _FC_PROJ_H2D_S


class TestDecomposition:
    def test_four_glue_lines_were_about_120_us_per_layer(self):
        glue = removed_glue_s(GPTJ_SIM, 8)
        assert glue * 1e6 == pytest.approx(120.5, abs=0.05)

    @pytest.mark.parametrize("policy", ["upmem", "mixed", "cpu"])
    def test_each_layer_falls_by_its_glue_minus_its_host_lines(self, policy):
        """... and by what the fused ``qkv_fc`` saves over ``qkv_gen``
        and ``fc``."""
        exe = _model(policy)
        gained = epilogue_lines_s(exe)
        glue = removed_glue_s(GPTJ_SIM, 8)
        fused = sum(fused_line_deltas_s(GPTJ_SIM, policy).values())
        for name, layer in _by_layer(exe.profile().nodes).items():
            host = sum(gained[f"{name}.{role}"] for role in layer)
            assert 0 < host < 5e-6
            now = sum(cost.total_s for cost in layer.values())
            assert now == pytest.approx(
                _PARENT_LAYER_US[policy] * 1e-6 - glue + host - fused,
                rel=1e-9,
            )


class TestRun:
    @pytest.mark.parametrize("policy", ["upmem", "mixed", "cpu"])
    def test_outputs_match_the_reference(self, policy):
        g = gptj_model_graph(TINY, layers=2, capacity=8)
        inputs = g.random_inputs(4)
        inputs["attn_mask"][5:] = -np.inf
        got = compile_graph(g, policy=policy).run_tensors(inputs)
        want = g.reference_outputs(inputs)
        for name, ref in want.items():
            if policy == "cpu":
                assert got[name].tobytes() == ref.tobytes(), name
            scale = float(np.max(np.abs(ref))) or 1.0
            assert np.max(np.abs(got[name] - ref)) / scale <= 1e-4, name

    def test_a_fused_node_runs_as_one_program(self):
        g = gptj_model_graph(TINY, layers=1, capacity=4)
        score = next(n for n in g.nodes if n.name == "L0.attn_score")
        exe = repro.compile(score.workload, params=score.params)
        inputs = score.workload.random_inputs(1)
        inputs["M"][3:] = -np.inf
        (probs,) = exe.run(inputs)
        assert probs.shape == (TINY.n_heads, 4)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-6)
        assert not probs[:, 3:].any()
