"""Property: §5.3 passes never change what a kernel computes.

Random guarded copy/compute loop nests are built directly in TIR (not via
the scheduler), transformed by each pass, and interpreted before/after.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import (
    eliminate_copy_checks,
    hoist_invariant_branches,
    tighten_loop_bounds,
)
from repro.tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    For,
    IfThenElse,
    IntImm,
    Var,
    seq,
)
from repro.upmem.interp import Interpreter


def _run(stmt, buffers, seed):
    rng = np.random.default_rng(seed)
    arrays = {}
    for buf in buffers:
        arrays[buf] = rng.random(buf.shape).astype(np.float32)
    Interpreter(arrays).run(stmt, {})
    return arrays


def _guarded_pipeline(tile, n_tiles, bound, rows, row_bound):
    """Build: per tile, guarded copy MRAM->WRAM then guarded compute."""
    mram = Buffer("M", (max(1, n_tiles * tile),), "float32", scope="mram")
    wram = Buffer("W", (tile,), "float32", scope="wram")
    out = Buffer("O", (max(1, rows),), "float32", scope="mram")
    j = Var("j")
    v = Var("v")
    r = Var("r")
    copy = For(
        v,
        tile,
        IfThenElse(
            j * tile + v < bound,
            BufferStore(wram, BufferLoad(mram, [j * tile + v]), [v]),
        ),
    )
    compute = For(
        v,
        tile,
        IfThenElse(
            j * tile + v < bound,
            BufferStore(
                out,
                BufferLoad(out, [r]) + BufferLoad(wram, [v]),
                [r],
            ),
        ),
    )
    inner = For(j, n_tiles, seq(copy, compute))
    guarded = IfThenElse(r < row_bound, inner)
    nest = For(r, rows, guarded)
    return nest, [mram, wram, out]


@settings(max_examples=40, deadline=None)
@given(
    tile=st.integers(2, 8),
    n_tiles=st.integers(1, 4),
    slack=st.integers(0, 7),
    rows=st.integers(1, 5),
    row_slack=st.integers(0, 3),
    seed=st.integers(0, 5),
)
def test_passes_preserve_output(tile, n_tiles, slack, rows, row_slack, seed):
    bound = max(1, n_tiles * tile - slack)
    row_bound = max(1, rows - row_slack)
    reference, buffers = _guarded_pipeline(tile, n_tiles, bound, rows, row_bound)
    before = _run(reference, buffers, seed)

    for transform in (
        eliminate_copy_checks,
        tighten_loop_bounds,
        hoist_invariant_branches,
        lambda s: hoist_invariant_branches(
            tighten_loop_bounds(eliminate_copy_checks(s))
        ),
    ):
        stmt, bufs = _guarded_pipeline(tile, n_tiles, bound, rows, row_bound)
        after = _run(transform(stmt), bufs, seed)
        out_before = before[buffers[2]]
        out_after = after[bufs[2]]
        np.testing.assert_allclose(out_before, out_after, rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    tile=st.integers(2, 8),
    slack=st.integers(0, 7),
    seed=st.integers(0, 3),
)
def test_dma_elim_copies_are_equivalent_in_valid_region(tile, slack, seed):
    """After DMA elimination the valid region of WRAM is identical.

    (The padded tail may differ — local padding makes over-reads safe.)
    """
    n = 3
    bound = max(1, n * tile - slack)
    mram = Buffer("M", (n * tile,), "float32", scope="mram")
    wram = Buffer("W", (tile,), "float32", scope="wram")
    j, v = Var("j"), Var("v")
    copy = For(
        j,
        n,
        For(
            v,
            tile,
            IfThenElse(
                j * tile + v < bound,
                BufferStore(wram, BufferLoad(mram, [j * tile + v]), [v]),
            ),
        ),
    )
    before = _run(copy, [mram, wram], seed)
    after = _run(eliminate_copy_checks(copy), [mram, wram], seed)
    # The last iteration of j leaves the final tile in WRAM; compare its
    # valid prefix.
    valid = max(0, bound - (n - 1) * tile)
    np.testing.assert_allclose(
        before[wram][:valid], after[wram][:valid], rtol=1e-6
    )
