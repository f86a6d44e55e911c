"""The GPT-J glue as host epilogues and a host prologue of the
programs beside it.

The masked, scaled softmax runs after ``attn_score``'s MMTV, the
residual add after ``proj``'s fold, and GELU before ``proj``'s kernel,
over the ``fc_pre`` part of its concatenated operand: a layer is four
nodes.  These tests pin what the fusion may and may not move: the
transfer and staging lines of the attention MMTVs are the ones the
unfused graph charged, and the step falls by the four glue compute
lines per layer minus the host lines the fused programs gain, by what
one ``qkv_fc`` program saves over ``qkv_gen`` and ``fc``, and by what
``proj``'s base program saves over those of ``attn_proj`` and
``fc_proj``.
"""

import numpy as np
import pytest

import repro
from repro.graph import GPTJ_SIM, compile_graph, gptj_model_graph

from .conftest import (
    TINY, epilogue_lines_s, fused_line_deltas_s, proj_line_deltas_s,
    removed_glue_s,
)

#: Per node role of ``gptj_model_graph(GPTJ_SIM, 3, 8)``, the
#: ``(h2d_s, d2h_s, staging_s)`` the unfused graph (30 nodes) charged
#: its PIM nodes, the same on every layer.
#: ``qkv_fc`` and ``proj`` are no unfused nodes: their lines are pinned
#: as measured when they replaced ``qkv_gen`` and ``fc``, and
#: ``attn_proj`` and ``fc_proj``.
_PARENT_TRANSFERS = {
    "qkv_fc": (9.033361619993677e-08, 2.8401702127659573e-05, 8.093892011514334e-05),
    "attn_score": (2.3464013266998343e-06, 4.871489361702127e-06, 1.8771210613598675e-05),
    "attn_value": (4.0835820895522383e-07, 5.742978723404255e-06, 1.3067462686567162e-05),
    "proj": (7.655675112808053e-07, 1.097191489361702e-05, 9.799264144394308e-05),
}

#: One layer's steady cost (µs) in the unfused graph, per target.
_PARENT_LAYER_US = {
    "upmem": 631.0406723546586,
    "cpu": 357.968,
}


def _model(target="upmem"):
    return compile_graph(gptj_model_graph(GPTJ_SIM, 3, 8), target)


def _by_layer(costs):
    layers = {}
    for cost in costs:
        layer, role = cost.node.split(".")
        layers.setdefault(layer, {})[role] = cost
    return layers


class TestShape:
    def test_three_layer_step_is_twelve_upmem_nodes(self):
        g = gptj_model_graph(GPTJ_SIM, 3, 8)
        assert len(g) == 12
        assert {c.target for c in _model().profile().nodes} == {"upmem"}
        assert [n.name for n in g.nodes[:4]] == [
            "L0.qkv_fc", "L0.attn_score", "L0.attn_value", "L0.proj",
        ]

    def test_fused_programs_start_and_end_in_host_statements(self):
        exe = _model()
        modules = {
            node.name.split(".")[1]: exe._exes[node.name][0].lowered
            for node in exe.graph.nodes if node.name.startswith("L0.")
        }
        # softmax: row max, exp, row sum, quotient; the FC nodes: the
        # rfactor fold, then (proj) the residual add; GELU before
        # proj's kernel.
        counts = {
            role: (len(m.host_pre), len(m.host_post))
            for role, m in modules.items()
        }
        assert counts == {
            "qkv_fc": (0, 1), "attn_score": (0, 4), "attn_value": (0, 0),
            "proj": (1, 2),
        }
        on_dpus = {
            role: {s.global_buffer.name for s in m.transfer("h2d")}
            for role, m in modules.items()
        }
        # The mask and the residual operands never cross, nor GELU's
        # operand: its product does.
        assert on_dpus["attn_score"] == {"A", "B"}
        assert on_dpus["proj"] == {"A", "G"}


class TestTransfers:
    def test_every_pim_line_is_the_unfused_graphs(self):
        for layer in _by_layer(_model().profile().nodes).values():
            for role, cost in layer.items():
                assert cost.target == "upmem"
                assert (cost.h2d_s, cost.d2h_s, cost.staging_s) == pytest.approx(
                    _PARENT_TRANSFERS[role], rel=1e-12
                ), role

    def test_output_made_on_the_host_pays_its_d2h(self):
        """``qkv_fc``'s output comes off the host fold (and is viewed):
        it pays the D2H, and ``proj``, whose kernel reads the product of
        its host prologue over the ``proj_in`` concat, the H2D."""
        layer = _by_layer(_model().profile().nodes)["L1"]
        assert layer["qkv_fc"].crossing_out and layer["qkv_fc"].d2h_s > 0
        assert layer["proj"].crossing_in and layer["proj"].h2d_s > 0


class TestDecomposition:
    def test_four_glue_lines_were_about_120_us_per_layer(self):
        glue = removed_glue_s(GPTJ_SIM, 8)
        assert glue * 1e6 == pytest.approx(120.5, abs=0.05)

    @pytest.mark.parametrize("target", ["upmem", "cpu"])
    def test_each_layer_falls_by_its_glue_minus_its_host_lines(self, target):
        """... and by what the fused ``qkv_fc`` saves over ``qkv_gen``
        and ``fc``, and ``proj``'s base over ``attn_proj``'s and
        ``fc_proj``'s (their glue is in the host lines)."""
        exe = _model(target)
        gained = epilogue_lines_s(exe)
        glue = removed_glue_s(GPTJ_SIM, 8)
        fused = sum(fused_line_deltas_s(GPTJ_SIM, target).values())
        fused += sum(
            proj_line_deltas_s(GPTJ_SIM, target, glue=False).values()
        )
        for name, layer in _by_layer(exe.profile().nodes).items():
            host = sum(gained[f"{name}.{role}"] for role in layer)
            assert 0 < host < 5e-6
            now = sum(cost.total_s for cost in layer.values())
            assert now == pytest.approx(
                _PARENT_LAYER_US[target] * 1e-6 - glue + host - fused,
                rel=1e-9,
            )


class TestRun:
    @pytest.mark.parametrize("target", ["upmem", "cpu"])
    def test_outputs_match_the_reference(self, target):
        g = gptj_model_graph(TINY, layers=2, capacity=8)
        inputs = g.random_inputs(4)
        inputs["attn_mask"][5:] = -np.inf
        got = compile_graph(g, target).run_tensors(inputs)
        want = g.reference_outputs(inputs)
        for name, ref in want.items():
            if target == "cpu":
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
