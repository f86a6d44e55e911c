"""Fig. 17 — whole-model decode step over the graph subsystem.

Not a paper figure: the model-graph subsystem's headline benchmark.  One
GPT-J decoder-layer decode step (scaled config, small grids per the
simulator cost model) compiled for the PIM and CPU targets, executed
functionally, and checked for the subsystem's core claims: bit-for-bit
parity with per-op execution, reference-matched outputs everywhere, and
a planned memory arena strictly below the naive allocation.
"""

from repro.harness import fig17_end_to_end, text_report

from .conftest import save_report

def test_fig17_decode_step(benchmark):
    data = benchmark.pedantic(
        fig17_end_to_end,
        kwargs=dict(tokens=16),
        rounds=1,
        iterations=1,
    )
    rows = data["rows"]
    save_report("fig17_end_to_end", text_report(fig17_end_to_end, data))
    by_target = {r["placement"]: r for r in rows}
    assert set(by_target) == {"upmem", "cpu"}

    # Each target executes the whole decode step correctly.
    for row in rows:
        assert row["matches_reference"] is True
        assert row["nodes"] == len(data["breakdown"][row["placement"]])

    # A graph compiles for one target: every node on the device, or
    # every node on the host.
    upmem, cpu = by_target["upmem"], by_target["cpu"]
    assert upmem["pim_nodes"] == upmem["nodes"] and upmem["host_nodes"] == 0
    assert cpu["pim_nodes"] == 0 and cpu["host_nodes"] == cpu["nodes"]

    # Boundary accounting: a host-only graph moves nothing over the
    # bus; the PIM graph stages weights once and pays crossings.
    assert cpu["h2d_ms"] == 0 and cpu["d2h_ms"] == 0
    assert cpu["staging_ms"] == 0
    assert upmem["staging_ms"] > 0
    assert upmem["d2h_ms"] > 0
    assert upmem["steady_state_ms"] < upmem["total_ms"]

    # Memory planner: buffer reuse strictly beats naive allocation and
    # never plans below the serial schedule's live peak.
    mem = data["memory"]
    assert mem["arena_bytes"] < mem["naive_bytes"]
    assert mem["arena_bytes"] >= mem["peak_live_bytes"]
    assert mem["reuse_ratio"] > 1.0
