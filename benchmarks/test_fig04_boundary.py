"""Fig. 4 — boundary-check overhead on CPU / GPU / UPMEM."""

from repro.harness import fig4_boundary_checks, text_report

from .conftest import save_report


def test_fig4_boundary_check_speedups(benchmark):
    rows = benchmark.pedantic(fig4_boundary_checks, rounds=1, iterations=1)
    save_report(
        "fig4_boundary_checks",
        text_report(fig4_boundary_checks, rows),
    )
    assert len(rows) == 9
    for row in rows:
        # The paper: ~20% average on UPMEM, near-zero on CPU/GPU.
        assert row["upmem_speedup"] > 1.08
        assert row["cpu_speedup"] < 1.05
        assert row["gpu_speedup"] < row["cpu_speedup"]
    avg = sum(r["upmem_speedup"] for r in rows) / len(rows)
    assert avg > 1.15
