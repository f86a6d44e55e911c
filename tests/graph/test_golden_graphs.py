"""The GPT-J builder is pinned graph-for-graph: signature digest, input
order, output order and node order."""

import json

from .golden_graphs import FIXTURE, compute_table


def test_table_covers_every_model_case():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    assert {"model/gptj-tiny/L1/c4", "model/gptj-cluster-sim/L3/c12",
            "model/gptj-6b-sim/L1/c4"} <= set(golden)
    assert all(case.startswith("model/") for case in golden)
    assert len(golden) == 27


def test_graphs_unchanged():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    current = compute_table()
    moved = sorted(k for k in golden if current.get(k) != golden[k])
    assert not moved, f"graphs changed for {len(moved)} cases: {moved[:8]}"
    assert list(current) == list(golden)
