"""Fig. 18 (cluster) — continuous batching vs. whole-request flushing.

Not a paper figure: the serving-cluster subsystem's headline benchmark.
One seeded diurnal+bursty multi-tenant trace (mixed model sizes,
per-tenant quotas and SLO classes) replays through two identically
configured 2-worker clusters that differ only in batching mode, and
the report must prove the subsystem's core claims: iteration-level
admission beats sealed whole-request batches on throughput AND tail
TTFT, and a seeded mid-decode worker kill recovers every orphaned
session via digest-verified replay.
"""

from repro.harness import fig18_cluster, text_report

from .conftest import save_report

KWARGS = dict(n_requests=24, n_workers=2, seed=7, max_batch=8)

def test_fig18_cluster_serving(benchmark):
    data = benchmark.pedantic(
        fig18_cluster, kwargs=KWARGS, rounds=1, iterations=1
    )
    save_report("fig18_cluster", text_report(fig18_cluster, data))
    by_mode = {r["mode"]: r for r in data["rows"]}
    cont, whole = by_mode["continuous"], by_mode["whole"]

    # Nothing is dropped in either mode.
    assert cont["completed"] == KWARGS["n_requests"]
    assert whole["completed"] == KWARGS["n_requests"]

    # The headline claim: iteration-level admission wins on throughput
    # AND on tail time-to-first-token (sealed batches make late
    # arrivals wait out the whole previous batch).
    assert cont["tokens_per_s"] > whole["tokens_per_s"]
    assert cont["p99_ttft_ms"] < whole["p99_ttft_ms"]

    # Continuous mode keeps batches fuller than one request at a time.
    assert cont["mean_batch"] > 1.0
    assert cont["kv_utilization"] > 0

    # Fault-injection recovery: the kill fired, the supervisor walked
    # worker 0 through degraded -> dead -> recovering, orphans replayed
    # on survivors, and every replayed token's digest matched the
    # original stream.
    scenario = data["fault_scenario"]
    assert scenario["faults"] == [
        {"at_s": 0.12, "worker": 0, "kind": "kill"}
    ]
    assert scenario["completed"] == KWARGS["n_requests"]
    assert scenario["replays"] > 0
    assert scenario["replay_ok"] is True
    states = [t["to"] for t in scenario["transitions"] if t["worker"] == 0]
    assert states == ["degraded", "dead", "recovering", "healthy"]
