"""Fig. 13 — single-DPU cycle attribution under O0..O3 (uPIMulator role)."""

from repro.harness import fig13_breakdown, text_report

from .conftest import save_report


def test_fig13_cycle_breakdown(benchmark):
    rows = benchmark.pedantic(fig13_breakdown, rounds=1, iterations=1)
    save_report("fig13_breakdown", text_report(fig13_breakdown, rows))

    gemv = {r["level"]: r for r in rows if r["case"].startswith("gemv")}
    va = {r["level"]: r for r in rows if r["case"].startswith("va")}

    for series in (gemv, va):
        # O0 suffers memory stalls from per-element MRAM accesses.
        assert series["O0"]["idle_memory"] > 0.25
        # DMA batching removes most small requests.
        assert series["O1"]["dma_calls"] < series["O0"]["dma_calls"] / 10
        # Dynamic instruction count decreases monotonically O0 → O3.
        instrs = [series[lv]["instructions_norm"] for lv in
                  ("O0", "O1", "O2", "O3")]
        assert instrs == sorted(instrs, reverse=True)
        assert instrs[-1] < 0.5  # paper: large instruction-count reduction

    # GEMV keeps compute-boundedness after optimization (issuable grows).
    assert gemv["O3"]["issuable"] >= gemv["O0"]["issuable"]
