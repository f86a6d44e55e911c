"""Fig. 17 — whole-model decode step over the graph subsystem.

Not a paper figure: the model-graph subsystem's headline benchmark.  One
GPT-J decoder-layer decode step (scaled config, small grids per the
simulator cost model) compiled under three placements, executed
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
    by_placement = {r["placement"]: r for r in rows}
    assert set(by_placement) == {"upmem", "cpu", "mixed"}

    # Every placement executes the whole decode step correctly.
    for row in rows:
        assert row["matches_reference"] is True
        assert row["nodes"] == len(data["breakdown"][row["placement"]])

    # Placement: the PIM placement puts the matvecs on the device and
    # all-CPU puts nothing there.  Every GPT-J node makes or reads
    # attention (the fused QKV/FC-up and projection programs included),
    # so it is tagged ``attn`` and the mixed split places as PIM does.
    assert by_placement["cpu"]["pim_nodes"] == 0
    assert by_placement["upmem"]["pim_nodes"] > 0
    assert (
        by_placement["mixed"]["pim_nodes"]
        == by_placement["upmem"]["pim_nodes"]
    )

    # Boundary accounting: a host-only graph moves nothing over the
    # bus; PIM placements stage weights once and pay crossings.
    cpu = by_placement["cpu"]
    assert cpu["h2d_ms"] == 0 and cpu["d2h_ms"] == 0
    assert cpu["staging_ms"] == 0
    for policy in ("upmem", "mixed"):
        row = by_placement[policy]
        assert row["staging_ms"] > 0
        assert row["d2h_ms"] > 0
        assert row["steady_state_ms"] < row["total_ms"]

    # Memory planner: buffer reuse strictly beats naive allocation and
    # never plans below the serial schedule's live peak.
    mem = data["memory"]
    assert mem["arena_bytes"] < mem["naive_bytes"]
    assert mem["arena_bytes"] >= mem["peak_live_bytes"]
    assert mem["reuse_ratio"] > 1.0
