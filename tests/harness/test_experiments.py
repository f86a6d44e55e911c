"""Experiment drivers produce sane, paper-shaped rows (small settings)."""

import pytest

from repro.harness import (
    fig3a_cache_tile_sweep,
    fig3b_tiling_schemes,
    fig3c_dpu_sweep,
    fig4_boundary_checks,
    fig9_tensor_ops,
    fig11_mmtv_scaling,
    fig12_pim_opts,
    fig13_breakdown,
    fig14_search_strategies,
    fig15_tuning_overhead,
    fig17_end_to_end,
    render_curve,
    render_table,
    summarize_speedups,
)


class TestMotivation:
    def test_fig3a_small_tiles_penalized(self):
        rows = fig3a_cache_tile_sweep(tiles=(4, 64))
        by_tile = {r["cache_elems"]: r["kernel_ms"] for r in rows}
        assert by_tile[4] > by_tile[64]  # DMA-setup-dominated at 4 elems

    def test_fig3b_has_tradeoff(self):
        rows = fig3b_tiling_schemes(m=2048, k=2048, n_dpus=256)
        assert len(rows) >= 3
        totals = [r["total_ms"] for r in rows]
        # Not monotone: a middle tiling wins (2-D beats extreme 1-D).
        best = min(range(len(totals)), key=totals.__getitem__)
        assert 0 < best or totals[0] <= totals[-1]

    def test_fig3c_small_tensor_prefers_fewer_dpus(self):
        rows = fig3c_dpu_sweep(m=512, k=512, dpu_counts=(64, 512))
        assert {r["n_dpus"] for r in rows} == {64, 512}

    def test_fig4_upmem_gains_dominate(self):
        rows = fig4_boundary_checks(sizes=[(542, 542)])
        row = rows[0]
        assert row["upmem_speedup"] > 1.1
        assert row["cpu_speedup"] < 1.05
        assert row["gpu_speedup"] < 1.02


def test_fig9_skips_sizes_a_workload_lacks():
    # va has no 512MB instance: the explicit size filter drops it.
    assert fig9_tensor_ops(workloads=["va"], sizes=["512MB"]) == []


def test_fig17_is_the_one_layer_model_graph():
    """fig17 runs one masked model-graph layer with every position
    valid: four ``L0.*`` nodes, each placement matching the reference,
    at the step times and arena the README reports."""
    data = fig17_end_to_end()
    assert data["graph"] == "gptj-6b-sim-model-L1-c16"
    steady = {row["placement"]: row["steady_state_ms"] for row in data["rows"]}
    # 0.5213 / 0.2381 / 0.4175 ms while qkv_gen and fc were two
    # programs, 0.4466 / 0.2081 / 0.3994 ms while attn_proj and fc_proj
    # were.  Every node is ``attn`` now: ``mixed`` is ``upmem``.
    assert steady == {
        "upmem": pytest.approx(0.3740, abs=5e-5),
        "cpu": pytest.approx(0.1780, abs=5e-5),
        "mixed": pytest.approx(0.3740, abs=5e-5),
    }
    for row in data["rows"]:
        assert row["nodes"] == 4 and row["matches_reference"] is True
    for costs in data["breakdown"].values():
        assert all(c["node"].startswith("L0.") for c in costs)
    # 4608 / 5376 / 4608 bytes before the qkv_fc fusion, 5632 / 6400 /
    # 5632 before the proj fusion.  ``proj`` reads the 5d-float concat
    # of the heads and fc_pre, a buffer of its own made when the heads
    # are: it lives beside the fused 7d-float vector (its fc_pre part
    # is copied in there), which then frees instead of living to the
    # last node.  On one layer that adds the concat's 2.5 KiB to every
    # figure.
    assert data["memory"]["arena_bytes"] == 7936
    assert data["memory"]["naive_bytes"] == 8448
    assert data["memory"]["peak_live_bytes"] == 7936


@pytest.mark.slow
class TestMainResults:
    @pytest.fixture(scope="class")
    def fig9_rows(self):
        return fig9_tensor_ops(
            workloads=["mtv", "red"], sizes=["64MB"], n_trials=24
        )

    def test_fig9_atim_wins(self, fig9_rows):
        for row in fig9_rows:
            assert row["atim_speedup_vs_prim"] >= 1.0

    def test_fig9_simplepim_only_for_supported(self, fig9_rows):
        by_wl = {r["workload"]: r for r in fig9_rows}
        assert "simplepim_ms" in by_wl["red"]
        assert "simplepim_ms" not in by_wl["mtv"]

    def test_fig9_summary(self, fig9_rows):
        summary = summarize_speedups(fig9_rows, "atim_speedup_vs_prim")
        assert summary["gmean"] >= 1.0

    def test_fig11_speedups_larger_for_small_spatial(self):
        rows = fig11_mmtv_scaling(
            spatial_sizes=[(8, 32), (64, 128)], k=256, n_trials=16
        )
        assert rows[0]["speedup_vs_prim"] >= rows[-1]["speedup_vs_prim"] * 0.5


class TestOptAblation:
    def test_fig12_o3_never_slower(self):
        rows = fig12_pim_opts(lengths=(91,), va_lengths=(2,))
        for row in rows:
            assert row["kernel_ms_O3"] <= row["kernel_ms_O0"] * 1.001

    def test_fig13_instructions_decrease(self):
        rows = fig13_breakdown(gemv_shape=(61, 61), va_len=5000)
        gemv_rows = [r for r in rows if r["case"].startswith("gemv")]
        instrs = [r["instructions_norm"] for r in gemv_rows]
        assert instrs == sorted(instrs, reverse=True)

    def test_fig13_fractions_valid(self):
        rows = fig13_breakdown(gemv_shape=(61, 61), va_len=5000)
        for row in rows:
            total = row["issuable"] + row["idle_memory"] + row["idle_core"]
            assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.slow
class TestSearchExperiments:
    def test_fig14_curves_returned(self):
        curves = fig14_search_strategies(m=512, k=512, n_trials=24)
        assert set(curves) == {
            "default_tvm", "balanced_sampling", "adaptive_epsilon", "atim"
        }
        for curve in curves.values():
            assert curve[-1][1] >= curve[0][1]

    def test_fig15_outputs(self):
        data = fig15_tuning_overhead(m=512, k=512, n_trials=16)
        assert data["upmem_measured"]
        assert data["cpu_measured"]
        assert max(data["upmem_measured"]) >= data["upmem_best"][0]


class TestReporting:
    def test_render_table(self):
        text = render_table([{"a": 1, "b": 2.5}], title="T")
        assert "T" in text and "a" in text and "2.5" in text

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="x")

    def test_render_curve(self):
        text = render_curve([(1, 1.0), (2, 2.0)], title="C")
        assert "C" in text and "#" in text
        assert "(no points)" in render_curve([], title="C")

    def test_summarize_empty(self):
        assert summarize_speedups([], "x")["gmean"] == 0.0
