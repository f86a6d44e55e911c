"""Fig. 12 — PIM-aware optimization ablation on misaligned shapes."""

from repro.harness import fig12_pim_opts, text_report

from .conftest import save_report


def test_fig12_opt_ablation(benchmark):
    rows = benchmark.pedantic(
        fig12_pim_opts,
        kwargs=dict(lengths=(72, 91, 123, 145, 164, 196, 212, 245),
                    va_lengths=(1, 4, 8)),
        rounds=1,
        iterations=1,
    )
    save_report("fig12_pim_opts", text_report(fig12_pim_opts, rows))

    for row in rows:
        # Each added pass never hurts (kernel time non-increasing O0→O3).
        assert row["kernel_ms_O1"] <= row["kernel_ms_O0"] * 1.001
        assert row["kernel_ms_O2"] <= row["kernel_ms_O1"] * 1.001
        assert row["kernel_ms_O3"] <= row["kernel_ms_O2"] * 1.001

    # DMA elimination is the single largest contributor (paper §7.3).
    mtv_rows = [r for r in rows if r["case"].startswith("mtv")]
    for row in mtv_rows:
        gain_dma = row["kernel_ms_O0"] - row["kernel_ms_O1"]
        gain_rest = row["kernel_ms_O1"] - row["kernel_ms_O3"]
        assert gain_dma > 0
        assert gain_dma >= gain_rest * 0.5

    # Loop-bound tightening helps column-misaligned shapes.
    cols = [r for r in rows if r["misalignment"] == "cols"]
    assert any(r["kernel_ms_O2"] < r["kernel_ms_O1"] * 0.999 for r in cols)
    # Branch hoisting helps row-misaligned shapes.
    rows_mis = [r for r in rows if r["misalignment"] == "rows"]
    assert any(r["kernel_ms_O3"] < r["kernel_ms_O2"] * 0.999 for r in rows_mis)
    # Fully applied, misaligned kernels run markedly faster (paper: up to
    # 14.7% vs hand-tuned; vs unoptimized lowering the gap is larger).
    both = [r for r in rows if r["misalignment"] == "both"]
    assert all(r["speedup_o3_vs_o0"] > 1.2 for r in both)
