"""The search space is pinned value-for-value and key-for-key: every
family function must return the recorded domains, seeds and pinned
parameter dicts, in the recorded key order."""

import json

from .golden_params import FIXTURE, compute_table


def test_table_covers_sized_and_graph_shapes():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    assert {"mtv/64MB", "red/512MB", "gptj-6b-sim/fc_proj",
            "gptj-cluster-sim/score-c4", "gptj-6b-sim/residual"} <= set(golden)
    assert sum(e["simplepim"] is not None for e in golden.values()) >= 10


def test_parameters_unchanged():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    current = compute_table()
    # Compared as rendered text: dict equality would ignore key order.
    moved = sorted(
        k for k in golden
        if k not in current or json.dumps(current[k]) != json.dumps(golden[k])
    )
    assert not moved, f"parameters changed for {len(moved)} cases: {moved[:8]}"
    assert list(current) == list(golden)
