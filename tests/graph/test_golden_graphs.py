"""The GPT-J builders are pinned graph-for-graph: signature digest, input
order, output order and node order, as recorded before the two
hand-emitted layers became one emitter."""

import json

from .golden_graphs import FIXTURE, compute_table


def test_table_covers_both_front_ends():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    assert {"decoder/gptj-tiny/t4/unpinned", "decoder/gptj-tiny/t4/override",
            "decoder/gptj-6b-sim/t16", "model/gptj-cluster-sim/L3/c12",
            "model/gptj-6b-sim/L1/c4"} <= set(golden)
    assert len(golden) == 40


def test_graphs_unchanged():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    current = compute_table()
    moved = sorted(k for k in golden if current.get(k) != golden[k])
    assert not moved, f"graphs changed for {len(moved)} cases: {moved[:8]}"
    assert list(current) == list(golden)
