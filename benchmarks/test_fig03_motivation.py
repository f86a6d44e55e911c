"""Fig. 3 — motivation: caching tiles, tiling schemes, DPU counts."""

from repro.harness import (
    fig3a_cache_tile_sweep,
    fig3b_tiling_schemes,
    fig3c_dpu_sweep,
    text_report,
)

from .conftest import save_report


def test_fig3a_cache_tile_size(benchmark):
    rows = benchmark.pedantic(
        fig3a_cache_tile_sweep, rounds=1, iterations=1
    )
    save_report("fig3a_cache_tiles", text_report(fig3a_cache_tile_sweep, rows))
    by_tile = {r["cache_elems"]: r["kernel_ms"] for r in rows}
    # Tiny tiles drown in DMA setup; the curve flattens by 64 elements.
    assert by_tile[4] > 1.3 * by_tile[64]
    assert by_tile[256] < by_tile[8]


def test_fig3b_tiling_schemes(benchmark):
    rows = benchmark.pedantic(fig3b_tiling_schemes, rounds=1, iterations=1)
    save_report(
        "fig3b_tiling_schemes",
        text_report(fig3b_tiling_schemes, rows),
    )
    totals = {(r["m_dpus"], r["k_dpus"]): r["total_ms"] for r in rows}
    best = min(rows, key=lambda r: r["total_ms"])
    # 2-D tiling (reduction-dimension DPUs > 1) wins over pure 1-D.
    assert best["k_dpus"] > 1
    one_d = [r for r in rows if r["k_dpus"] == 1]
    if one_d:
        assert best["total_ms"] < one_d[0]["total_ms"]


def test_fig3c_dpu_count_sweep(benchmark):
    small = benchmark.pedantic(fig3c_dpu_sweep, rounds=1, iterations=1)
    big = fig3c_dpu_sweep(m=8192, k=8192,
                          dpu_counts=(64, 256, 512, 1024, 2048))
    save_report(
        "fig3c_dpu_sweep",
        text_report(fig3c_dpu_sweep, small)
        + "\n\n"
        + text_report(fig3c_dpu_sweep, big),
    )
    # Large tensors want the full system; small tensors plateau early.
    assert min(big, key=lambda r: r["total_ms"])["n_dpus"] >= 1024
    best_small = min(small, key=lambda r: r["total_ms"])
    assert best_small["n_dpus"] <= 512
