"""Fig. 17 (multi-layer) — full-model decode over managed device memory.

Not a paper figure: the decode subsystem's headline benchmark.  A
3-layer GPT-J (scaled config) decodes 6 tokens over a paged KV cache
and a 2-layer weight-residency budget, and the report must prove the
subsystem's core claims: KV pages grow across steps without graph
replanning (zero programs compile inside a capacity epoch, and a
page-boundary epoch loads only the capacity-sized attention programs),
weight stage/evict events land in the per-layer breakdown, and every
total reproduces bit-for-bit at any worker count.
"""

from repro.harness import fig17_multilayer, text_report

from .conftest import save_report

KWARGS = dict(
    layers=3, tokens=6, prompt_tokens=6, page_tokens=4, seed=0
)

def test_fig17_multilayer_decode(benchmark):
    data = benchmark.pedantic(
        fig17_multilayer, kwargs=KWARGS, rounds=1, iterations=1
    )
    save_report("fig17_multilayer", text_report(fig17_multilayer, data))
    rows = data["rows"]
    assert len(rows) == 6
    assert all(r["reference_ok"] is True for r in rows)

    # Paged growth without replanning: prompt 6 at 4 tokens/page runs
    # steps 0-2 at capacity 8; the append after step 2 crosses a page
    # boundary and steps 3-5 run at capacity 12.  Exactly one mid-run
    # replan, and steps inside an epoch compile NOTHING.
    assert [r["capacity"] for r in rows] == [8, 8, 8, 12, 12, 12]
    assert data["replans"] == 1
    for r in rows:
        if not r["replanned"]:
            assert r["compiled_programs"] == 0

    # The first epoch loads the whole program set, one per node of a
    # layer; the page-boundary epoch pool-hits every capacity-independent
    # program and loads only the two attention programs sized to the new
    # capacity (the score MMTV with its softmax epilogue, the value MMTV).
    assert rows[0]["compiled_programs"] == 4
    boundary = rows[3]
    assert boundary["replanned"] is True
    assert boundary["compiled_programs"] == 2

    # Weight residency (budget 2 of 3 layers): stage/evict events are
    # visible in the per-layer breakdown, and staging recurs (it is a
    # schedule, not a one-time load).
    per_layer = data["per_layer"]
    assert sum(r["stages"] for r in per_layer) > 3  # > load-once
    assert sum(r["evictions"] for r in per_layer) > 0
    assert sum(r["staging_ms"] for r in per_layer) > 0
    assert all(r["compute_ms"] > 0 for r in per_layer)

    # Cache growth is charged every step, on every layer.
    assert all(r["cache_growth_ms"] > 0 for r in rows)
    assert all(r["cache_growth_ms"] > 0 for r in per_layer)

    # The whole payload — totals, schedules, timings — reproduces
    # bit-for-bit.
    assert fig17_multilayer(**KWARGS) == data

    # Paged-cache accounting rides along for the --json artifact.
    cache = data["cache"]
    assert cache["pages_allocated"] == 9  # 3 pages x 3 layers
    assert cache["utilization"] == 1.0  # 12 cached tokens fill 3 pages
    assert data["memory"]["utilization"] > 0
