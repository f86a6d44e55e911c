"""Simulator raw speed — scalar interpreter vs vectorized NumPy backend.

Not a paper figure: this gates the functional simulator's own speed,
which bounds every tuning sweep above it.  The vector backend must be
(a) bit-identical to the scalar interpreter and (b) at least 5x faster
wall-clock on the 4MB tensor-op suite (the issue's floor; mtv/mmtv run
far above it).  Raw rows land in ``results/BENCH_sim_speed.json`` so
successive PRs can diff the trajectory.
"""

import json
import math

from repro.harness import sim_speed, text_report

from .conftest import RESULTS_DIR, save_report


def test_sim_speed_vector_vs_scalar(benchmark):
    rows = benchmark.pedantic(sim_speed, rounds=1, iterations=1)
    save_report("sim_speed", text_report(sim_speed, rows))
    payload = {
        "rows": rows,
        "geomean_speedup": math.exp(
            sum(math.log(r["speedup"]) for r in rows) / len(rows)
        ),
    }
    path = RESULTS_DIR / "BENCH_sim_speed.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert len(rows) == 4
    for row in rows:
        # The whole point: same bytes, much less time.
        assert row["bit_identical"], row["workload"]
        assert row["speedup"] > 5.0, row
    assert payload["geomean_speedup"] > 10.0
