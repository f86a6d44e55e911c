"""Lowering is pinned byte-for-byte: every corpus draw must lower to the
recorded text at O0 and O3, and every recorded rejection must repeat."""

import json

from .golden_corpus import (
    DEFECTS,
    DRAWS_PER_DEFECT,
    DRAWS_PER_FAMILY,
    FAMILIES,
    FIXTURE,
    compute_corpus,
)


def test_corpus_covers_every_family_and_both_subspaces():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    assert len(golden) == (
        len(FAMILIES) * DRAWS_PER_FAMILY + len(DEFECTS) * DRAWS_PER_DEFECT
    )
    assert DRAWS_PER_FAMILY >= 20
    rfactor = [e for e in golden.values() if e.get("params", {}).get("k_dpus", 1) > 1]
    plain = [e for e in golden.values() if e.get("params", {}).get("k_dpus") == 1]
    assert rfactor and plain
    assert sum("rejected" in e for e in golden.values()) == len(DEFECTS) * DRAWS_PER_DEFECT


def test_lowered_text_and_rejections_unchanged():
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    current = compute_corpus()
    moved = sorted(k for k in golden if current.get(k) != golden[k])
    assert not moved, f"lowering changed for {len(moved)} draws: {moved[:8]}"
    assert set(current) == set(golden)
