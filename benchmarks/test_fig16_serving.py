"""Fig. 16 — serving throughput and tail latency under dynamic batching.

Not a paper figure: the serving subsystem's headline benchmark.  One
seeded GPT-J + tensor-op traffic trace replayed per (target, max-batch)
cell; throughput must rise with the batch limit on the PIM target
(kernels replicate across idle DPU groups, launch/dispatch amortizes).
"""

from repro.harness import fig16_serving, text_report

from .conftest import save_report

def test_fig16_batching_throughput(benchmark):
    data = benchmark.pedantic(
        fig16_serving,
        kwargs=dict(n_requests=64, batch_sizes=(1, 4, 16)),
        rounds=1,
        iterations=1,
    )
    rows = data["rows"]
    save_report("fig16_serving", text_report(fig16_serving, data))
    by_cell = {(r["target"], r["max_batch"]): r for r in rows}
    assert len(rows) == 6  # {upmem, cpu} x {1, 4, 16}

    # Every cell serves the whole trace: nothing rejected, nothing lost.
    for row in rows:
        assert row["completed"] == 64 and row["rejected"] == 0

    # Acceptance: batched throughput beats singleton dispatch on upmem,
    # monotonically across the batch limits.
    upmem = [by_cell[("upmem", b)]["throughput_rps"] for b in (1, 4, 16)]
    assert upmem[2] > upmem[1] > upmem[0]

    # Batching amortizes dispatch on the CPU roofline too (weaker: no
    # DPU-group replication there).
    assert by_cell[("cpu", 16)]["throughput_rps"] > (
        by_cell[("cpu", 1)]["throughput_rps"]
    )

    # The batcher actually grouped requests at batch 16.
    assert by_cell[("upmem", 16)]["mean_batch"] > 1.5
    assert by_cell[("upmem", 16)]["flushes"] < 64

    # Tail latency: grouped flushes shorten the busy queue, so p99 at
    # batch 16 must not regress past the singleton policy.
    assert by_cell[("upmem", 16)]["p99_ms"] <= by_cell[("upmem", 1)]["p99_ms"]

    # Full metrics dicts ride along for the --json dump.
    snapshot = data["metrics"]["upmem_b16"]
    for key in ("latency_ms", "queue_wait_ms", "pool", "batch_histogram"):
        assert key in snapshot
