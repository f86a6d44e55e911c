"""Table 3 — autotuned parameters found for each workload/size."""

from repro.harness import table3_parameters, text_report

from .conftest import save_report


def test_table3_parameters(benchmark):
    rows = benchmark.pedantic(
        table3_parameters,
        kwargs=dict(workloads=["red", "mtv", "va"], n_trials=32),
        rounds=1,
        iterations=1,
    )
    save_report("table3_parameters", text_report(table3_parameters, rows))
    by_key = {(r["workload"], r["size"]): r for r in rows}

    # PrIM never tiles the reduction dimension; ATiM may.
    for (wl, _size), row in by_key.items():
        if wl == "mtv":
            assert row["prim_search"]["k_dpus"] == 1
    # Large MTV: ATiM distributes DPUs over both dimensions (the paper's
    # headline structural difference in Table 3).
    large = by_key[("mtv", "512MB")]
    assert large["atim"].get("k_dpus", 1) > 1
    # PrIM defaults come straight from Table 3.
    assert by_key[("mtv", "64MB")]["prim_defaults"]["m_dpus"] == 256
    assert by_key[("red", "64MB")]["prim_defaults"]["n_dpus"] == 1024
