"""The pipeline reproduces the hard-wired §5.3 compile flow.

O0–O3 through ``repro.compile`` (the ``build`` pipeline) must emit
exactly the IR that lowering followed by the three rewrites, composed
by hand in their fixed order, produces.
"""

import numpy as np
import pytest

import repro
from repro.lowering import LowerOptions, lower
from repro.optim import (
    LEVELS,
    eliminate_copy_checks,
    hoist_invariant_branches,
    tighten_loop_bounds,
)
from repro.pipeline import PassContext, build
from repro.tir import stmt_to_str

from ..conftest import make_mtv_schedule


def legacy_optimize_kernel(kernel, level):
    """The pre-pipeline hard-wired §5.3 sequence, verbatim."""
    rank = LEVELS.index(level)
    if rank >= 1:
        kernel = eliminate_copy_checks(kernel)
    if rank >= 2:
        kernel = tighten_loop_bounds(kernel)
    if rank >= 3:
        kernel = hoist_invariant_branches(kernel)
    return kernel


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("shape", [(37, 50), (64, 64)])
def test_optimize_kernel_matches_legacy(level, shape):
    new = build.run(make_mtv_schedule(*shape), PassContext(opt_level=level))
    old = legacy_optimize_kernel(lower(make_mtv_schedule(*shape)).kernel, level)
    assert stmt_to_str(new.kernel) == stmt_to_str(old)


def test_optimize_kernel_rejects_unknown_level():
    for level in ("O7", "fast"):
        with pytest.raises(ValueError):
            repro.compile(make_mtv_schedule(8, 8), opt_level=level)


def test_optimize_module_identity_at_o0():
    # Regression: nothing returns an unoptimised kernel under a level's
    # name — O0 is the lowered kernel and says so, O3 is not.
    lowered = stmt_to_str(lower(make_mtv_schedule(37, 50)).kernel)
    assert repro.compile(make_mtv_schedule(37, 50), opt_level="O0").script() == lowered
    assert repro.compile(make_mtv_schedule(37, 50), opt_level="O3").script() != lowered
    assert not hasattr(LowerOptions(), "optimize")


def test_build_matches_lower_plus_optimize():
    for level in LEVELS:
        built = repro.compile(make_mtv_schedule(37, 50), name="mtv", opt_level=level)
        manual = legacy_optimize_kernel(
            lower(make_mtv_schedule(37, 50), name="mtv").kernel, level
        )
        assert built.script() == stmt_to_str(manual)


def test_build_pipeline_executes_correctly():
    rng = np.random.default_rng(7)
    m, k = 37, 50
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random(k, dtype=np.float32)
    mod = repro.compile(make_mtv_schedule(m, k), name="mtv")
    out, = mod.run(A=a, B=b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-3)


def test_build_accepts_explicit_context():
    options = LowerOptions(transfer_mode="bulk")
    mod = repro.compile(
        make_mtv_schedule(16, 16), name="mtv", opt_level="O2", options=options
    )
    assert mod.lowered.name == "mtv"
    assert mod.lowered.options is options


def test_build_respects_context_only_settings():
    # Regression: the lowering options are what only the caller can
    # say; the level used to be written over them (a fresh
    # ``LowerOptions(optimize=level)``), so ``bulk`` came back
    # ``parallel``.
    for level in LEVELS:
        mod = repro.compile(
            make_mtv_schedule(16, 16),
            target="upmem",
            opt_level=level,
            options=LowerOptions(transfer_mode="bulk"),
        )
        assert mod.lowered.options.transfer_mode == "bulk"


def test_module_source_via_emit_pass():
    mod = repro.compile(make_mtv_schedule(16, 16), name="mtv")
    src = mod.source()
    assert "__mram_noinit" in src
