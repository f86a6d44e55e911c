"""Fig. 11 — ATiM's MMTV speedup vs spatial-dimension size."""

from repro.harness import fig11_mmtv_scaling, text_report

from .conftest import save_report


def test_fig11_speedup_vs_spatial_size(benchmark):
    rows = benchmark.pedantic(
        fig11_mmtv_scaling, kwargs=dict(n_trials=24), rounds=1, iterations=1
    )
    save_report("fig11_mmtv_scaling", text_report(fig11_mmtv_scaling, rows))
    assert all(r["speedup_vs_prim"] >= 0.95 for r in rows)
    # The paper: speedups are largest for small spatial dimensions (where
    # reduction tiling matters) and plateau as spatial size grows.
    small = [r for r in rows if r["spatial"] <= 5000]
    large = [r for r in rows if r["spatial"] > 50000]
    if small and large:
        avg_small = sum(r["speedup_vs_prim"] for r in small) / len(small)
        avg_large = sum(r["speedup_vs_prim"] for r in large) / len(large)
        assert avg_small >= avg_large * 0.9
    # rfactor is used in the small-spatial regime.
    assert any(r["uses_rfactor"] for r in rows[:3])
