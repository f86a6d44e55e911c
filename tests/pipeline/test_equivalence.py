"""The unified pipeline reproduces the legacy hard-wired compile flow.

O0–O3 through ``optimize_kernel``/``optimize_module`` must emit exactly
the IR the old ad-hoc pass sequence produced, and ``repro.compile`` of a
schedule (the ``build`` pipeline) must match lower-then-optimize
composition.
"""

import numpy as np
import pytest

import repro
from repro.lowering import LowerOptions, lower
from repro.optim import (
    LEVELS,
    eliminate_copy_checks,
    hoist_invariant_branches,
    optimize_kernel,
    optimize_module,
    tighten_loop_bounds,
)
from repro.pipeline import PassContext
from repro.tir import stmt_to_str
from repro.upmem import FunctionalExecutor

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
    sch = make_mtv_schedule(*shape)
    kernel = lower(sch, options=LowerOptions(optimize=level)).kernel
    new = optimize_kernel(kernel, level)
    old = legacy_optimize_kernel(kernel, level)
    assert stmt_to_str(new) == stmt_to_str(old)


def test_optimize_kernel_rejects_unknown_level():
    with pytest.raises(ValueError):
        optimize_kernel(lower(make_mtv_schedule(8, 8)).kernel, "O7")
    with pytest.raises(ValueError):
        optimize_module(lower(make_mtv_schedule(8, 8)), "fast")


def test_optimize_module_identity_at_o0():
    module = lower(make_mtv_schedule(37, 50), options=LowerOptions(optimize="O0"))
    assert optimize_module(module, "O0") is module


def test_build_matches_lower_plus_optimize():
    for level in LEVELS:
        sch = make_mtv_schedule(37, 50)
        options = LowerOptions(optimize=level)
        built = repro.compile(sch, name="mtv", opt_level=level)
        manual = optimize_module(
            lower(make_mtv_schedule(37, 50), name="mtv", options=options), level
        )
        assert built.script() == stmt_to_str(manual.kernel)


def test_build_pipeline_executes_correctly():
    rng = np.random.default_rng(7)
    m, k = 37, 50
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random(k, dtype=np.float32)
    mod = repro.compile(make_mtv_schedule(m, k), name="mtv")
    out, = mod.run(A=a, B=b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-3)


def test_build_accepts_explicit_context():
    ctx = PassContext()
    mod = repro.compile(
        make_mtv_schedule(16, 16), name="mtv", opt_level="O2", ctx=ctx
    )
    assert ctx.opt_level == "O2"
    ran = [t.name for t in ctx.timings if not t.skipped]
    skipped = [t.name for t in ctx.timings if t.skipped]
    assert "tighten_loop_bounds" in ran
    assert skipped == ["hoist_invariant_branches"]
    assert mod.lowered.name == "mtv"


def test_build_respects_context_only_settings():
    # The module name is the one setting only the context may carry: with
    # no name= it stands, while the call's opt_level and the target's
    # machine are written into the context.
    cfg = repro.UpmemConfig().with_(n_ranks=2)
    ctx = PassContext(module_name="ctx_mtv")
    mod = repro.compile(
        make_mtv_schedule(16, 16),
        target=repro.target.UpmemTarget(cfg),
        opt_level="O1",
        ctx=ctx,
    )
    assert mod.lowered.name == "ctx_mtv"
    assert ctx.config is cfg and ctx.opt_level == "O1"
    skipped = [t.name for t in ctx.timings if t.skipped]
    assert skipped == ["tighten_loop_bounds", "hoist_invariant_branches"]


def test_module_source_via_emit_pass():
    mod = repro.compile(make_mtv_schedule(16, 16), name="mtv")
    src = mod.source()
    assert "__mram_noinit" in src
