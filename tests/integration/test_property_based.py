"""Property-based tests (hypothesis) on the compiler's core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune.compile import default_engine
from repro.tir import IntImm, Var, simplify
from repro.upmem import FunctionalExecutor
from repro.upmem.interp import Interpreter
from repro.workloads import mtv, va


# ---------------------------------------------------------------------------
# simplify(e) is semantics-preserving
# ---------------------------------------------------------------------------

_binops = st.sampled_from(["add", "sub", "mul", "div", "mod", "min", "max"])


@st.composite
def int_exprs(draw, depth=0):
    """Random integer expressions over variables i, j."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return IntImm(draw(st.integers(-20, 20)))
        return Var("i") if choice == 1 else Var("j")
    a = draw(int_exprs(depth=depth + 1))
    b = draw(int_exprs(depth=depth + 1))
    op = draw(_binops)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a // (abs_const(draw) if True else b)
    if op == "mod":
        return a % abs_const(draw)
    if op == "min":
        from repro.tir import Min

        return Min(a, b)
    from repro.tir import Max

    return Max(a, b)


def abs_const(draw):
    return IntImm(draw(st.integers(1, 9)))


@settings(max_examples=120, deadline=None)
@given(expr=int_exprs(), i=st.integers(0, 30), j=st.integers(0, 30))
def test_simplify_preserves_value(expr, i, j):
    interp = Interpreter({})
    env = {v: val for v, val in []}
    # Bind by name: the strategy reuses fresh Var objects per example.
    from repro.tir import collect_vars

    bindings = {}
    for var in collect_vars(expr):
        bindings[var] = i if var.name == "i" else j
    before = interp.eval(expr, dict(bindings))
    after_expr = simplify(expr)
    after_bindings = {}
    for var in collect_vars(after_expr):
        after_bindings[var] = i if var.name == "i" else j
    after = interp.eval(after_expr, after_bindings)
    assert before == after


# ---------------------------------------------------------------------------
# the whole compiler is correct for arbitrary tile parameters
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(5, 40),
    k=st.integers(5, 48),
    m_dpus=st.sampled_from([1, 2, 4, 8]),
    k_dpus=st.sampled_from([1, 2, 4]),
    tasklets=st.sampled_from([1, 2, 4]),
    cache=st.sampled_from([4, 8, 16]),
    level=st.sampled_from(["O0", "O3"]),
)
def test_mtv_correct_for_any_tiling(m, k, m_dpus, k_dpus, tasklets, cache, level):
    wl = mtv(m, k)
    params = {
        "m_dpus": m_dpus,
        "k_dpus": k_dpus,
        "n_tasklets": tasklets,
        "cache": cache,
        "host_threads": 1,
    }
    module = default_engine().compile(wl, params, opt_level=level).module
    if module is None:
        return  # schedule invalid for this shape — acceptable
    inputs = wl.random_inputs(0)
    out, = FunctionalExecutor(module).run(inputs)
    np.testing.assert_allclose(
        out, wl.reference_output(inputs), rtol=1e-3, atol=1e-4
    )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(10, 400),
    n_dpus=st.sampled_from([1, 2, 4, 8]),
    tasklets=st.sampled_from([1, 2, 4]),
    cache=st.sampled_from([4, 8, 16]),
)
def test_va_correct_for_any_tiling(n, n_dpus, tasklets, cache):
    wl = va(n)
    params = {"n_dpus": n_dpus, "n_tasklets": tasklets, "cache": cache}
    module = default_engine().compile(wl, params, opt_level="O3").module
    if module is None:
        return
    inputs = wl.random_inputs(0)
    out, = FunctionalExecutor(module).run(inputs)
    np.testing.assert_allclose(out, wl.reference_output(inputs), rtol=1e-4)


# ---------------------------------------------------------------------------
# optimization levels never change results
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(7, 30),
    k=st.integers(7, 40),
)
def test_opt_levels_agree(m, k):
    wl = mtv(m, k)
    params = {
        "m_dpus": 4,
        "k_dpus": 2,
        "n_tasklets": 2,
        "cache": 8,
        "host_threads": 1,
    }
    inputs = wl.random_inputs(1)
    outputs = []
    for level in ("O0", "O1", "O2", "O3"):
        module = default_engine().compile(wl, params, opt_level=level).module
        if module is None:
            return
        out, = FunctionalExecutor(module).run(inputs)
        outputs.append(out)
    for other in outputs[1:]:
        np.testing.assert_allclose(outputs[0], other, rtol=1e-4)
