"""Host epilogues: element-wise and row-reduction stages after a PIM kernel.

:func:`repro.workloads.with_epilogue` appends stages to a sketched
workload; the sketch distributes the base output and leaves the stages
unbound, so the lowering emits them as ``host_post`` statements, the
only place the float ``/`` and the ``exp``/``tanh`` intrinsics may
appear.  Generated cases draw the base program's extents and params,
an element-wise epilogue over ``exp``/``tanh``/``/``/``+``/``*`` and,
on a 2-D output, a masked softmax (a ``max`` and a ``sum`` row
reduction) whose mask ends in a ``-inf`` tail.  The scalar interpreter
and the vector plan must agree on every byte, and the fused module must
equal the base reference followed by the epilogue reference within the
tolerance ``perf`` checks graph outputs with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import te
from repro.autotune.sketch import generate_schedule, param_space
from repro.lowering import LoweringError, lower
from repro.upmem import FunctionalExecutor
from repro.upmem.emitter import emit_host_pseudocode
from repro.workloads import Workload, mmtv, mtv, with_epilogue

#: perf's graph-output tolerance, as a share of the reference's largest
#: element (``perf/adapters.py: _GRAPH_TOLERANCE``).
_TOLERANCE = 1e-4


# ---------------------------------------------------------------------------
# generated epilogues
# ---------------------------------------------------------------------------


@st.composite
def _elementwise(draw, depth=0):
    """``(te_fn, np_fn)`` of one generated element-wise expression of
    the base value ``x``: the same operations in the same order, on a TE
    expression and on a float32 array.  ``exp`` reads a ``tanh`` and a
    product's second factor is one, so every value stays finite (NaN
    is where the scalar ``max`` and NumPy's part ways)."""
    kinds = ["x", "exp", "tanh", "div", "add", "mul"] if depth < 3 else ["x"]
    kind = draw(st.sampled_from(kinds))
    if kind == "x":
        return (lambda x: x), (lambda x: x)
    a_te, a_np = draw(_elementwise(depth + 1))
    if kind == "exp":
        c = draw(st.sampled_from([0.5, 2.0, -3.0]))
        return (
            lambda x: te.exp(te.tanh(a_te(x)) * c),
            lambda x: np.exp(np.tanh(a_np(x)) * np.float32(c)),
        )
    if kind == "tanh":
        return (lambda x: te.tanh(a_te(x))), (lambda x: np.tanh(a_np(x)))
    b_te, b_np = draw(_elementwise(depth + 1))
    if kind == "div":
        return (
            lambda x: a_te(x) / (b_te(x) * b_te(x) + 1.0),
            lambda x: a_np(x) / (b_np(x) * b_np(x) + np.float32(1.0)),
        )
    if kind == "add":
        return (lambda x: a_te(x) + b_te(x)), (lambda x: a_np(x) + b_np(x))
    return (
        lambda x: a_te(x) * te.tanh(b_te(x)),
        lambda x: a_np(x) * np.tanh(b_np(x)),
    )


def _softmax(E: te.Tensor, M: te.Tensor) -> te.Tensor:
    rows, n = E.shape
    Z = te.compute((rows, n), lambda i, j: E[i, j] + M[j], "Z")
    k = te.reduce_axis(n, "k_max")
    top = te.compute((rows,), lambda i: te.max_reduce(Z[i, k], axis=k), "Z_max")
    X = te.compute((rows, n), lambda i, j: te.exp(Z[i, j] - top[i]), "X")
    k = te.reduce_axis(n, "k_sum")
    total = te.compute((rows,), lambda i: te.sum(X[i, k], axis=k), "X_sum")
    return te.compute((rows, n), lambda i, j: X[i, j] / total[i], "P")


def _softmax_ref(e: np.ndarray, m: np.ndarray) -> np.ndarray:
    z = e + m
    x = np.exp(z - z.max(axis=-1, keepdims=True))
    return x / x.sum(axis=-1, keepdims=True)


def _small(domain, cap):
    return [v for v in domain if v <= cap] or domain[:1]


@st.composite
def _case(draw):
    """``(workload, params, inputs)``: a base mtv or mmtv with a
    generated epilogue, small params, and inputs whose mask (2-D only)
    ends in a ``-inf`` tail."""
    if draw(st.booleans()):
        base = mtv(draw(st.integers(1, 40)), draw(st.integers(1, 150)))
    else:
        base = mmtv(
            draw(st.integers(1, 5)), draw(st.integers(1, 12)),
            draw(st.integers(1, 40)),
        )
    f_te, f_np = draw(_elementwise())
    shape = base.output.shape
    masked = len(shape) == 2 and draw(st.booleans())
    extra = [te.placeholder((shape[1],), "float32", "M")] if masked else []

    def epilogue(C, *mask):
        E = te.compute(shape, lambda *i: f_te(C[i]), "E")
        return _softmax(E, mask[0]) if mask else E

    def reference(c, *mask):
        e = f_np(c.astype(np.float32))
        return _softmax_ref(e, mask[0]) if mask else e

    wl = with_epilogue(base, epilogue, reference, flops=0.0, extra_inputs=extra)
    caps = {"n_tasklets": 4, "host_threads": 4}
    params = {
        key: draw(st.sampled_from(_small(domain, caps.get(key, 8))))
        for key, domain in param_space(base).items()
    }
    inputs = wl.random_inputs(draw(st.integers(0, 2**16)))
    if masked:
        valid = draw(st.integers(1, shape[1]))
        inputs["M"][valid:] = -np.inf
    return wl, params, inputs


@settings(max_examples=60, deadline=None)
@given(_case())
def test_scalar_equals_vector_and_the_reference(case):
    wl, params, inputs = case
    module = repro.compile(wl, params=params).lowered
    assert module.host_post
    (vector,) = FunctionalExecutor(module, mode="vector").run(inputs)
    (scalar,) = FunctionalExecutor(module, mode="scalar").run(inputs)
    assert vector.tobytes() == scalar.tobytes()
    want = np.asarray(wl.reference_output(inputs), dtype=np.float64)
    assert np.isfinite(want).all()
    scale = float(np.max(np.abs(want))) or 1.0
    assert np.max(np.abs(vector - want)) / scale <= _TOLERANCE


# ---------------------------------------------------------------------------
# the fused program's shape
# ---------------------------------------------------------------------------


def _residual(base: Workload) -> Workload:
    (n,) = base.output.shape
    R = te.placeholder((n,), "float32", "R")
    return with_epilogue(
        base, lambda C, R: te.compute((n,), lambda i: C[i] + R[i], "D"),
        lambda c, r: c + r, flops=float(n), extra_inputs=[R],
    )


class TestFusedProgram:
    PARAMS = {
        "m_dpus": 4, "k_dpus": 2, "n_tasklets": 2, "cache": 16,
        "host_threads": 1, "unroll": 0,
    }

    def test_keeps_the_base_identity(self):
        base = mtv(32, 64)
        wl = _residual(base)
        assert (wl.name, wl.shape, wl.params) == (base.name, base.shape, base.params)
        assert wl.kernel_output is base.output
        assert [t.name for t in wl.kernel_inputs] == ["A", "B"]
        assert [t.name for t in wl.inputs] == ["A", "B", "R"]
        assert param_space(wl) == param_space(base)

    def test_epilogue_input_never_crosses(self):
        module = repro.compile(_residual(mtv(32, 64)), params=self.PARAMS).lowered
        names = {spec.global_buffer.name for spec in module.transfers}
        assert "R" not in names and {"A", "B"} <= names
        # The rfactor fold, then the residual add.
        assert len(module.host_post) == 2
        assert module.outputs[0].name == "D"

    def test_emitter_prints_the_intrinsics(self):
        base = mtv(32, 64)
        wl = with_epilogue(
            base,
            lambda C: te.compute((32,), lambda i: te.tanh(te.exp(C[i]) / 2.0), "T"),
            lambda c: np.tanh(np.exp(c) / np.float32(2.0)), flops=0.0,
        )
        text = emit_host_pseudocode(repro.compile(wl, params=self.PARAMS).lowered)
        assert "T[T_i0] = tanh(exp(C[T_i0]) / 2.0)" in text

    def test_host_line_prices_the_epilogue(self):
        base = repro.compile(mtv(32, 64), params=self.PARAMS).profile().latency
        fused = repro.compile(_residual(mtv(32, 64)), params=self.PARAMS)
        lat = fused.profile().latency
        assert lat.host > base.host
        assert (lat.h2d, lat.kernel, lat.d2h) == (base.h2d, base.kernel, base.d2h)


# ---------------------------------------------------------------------------
# the boundary: a DPU cannot compute them
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "op,body",
    [
        ("exp", lambda A, B, i: te.exp(A[i]) + B[i]),
        ("tanh", lambda A, B, i: te.tanh(A[i]) * B[i]),
        ("/", lambda A, B, i: A[i] / B[i]),
    ],
)
def test_host_only_op_in_a_dpu_stage_raises(op, body):
    A = te.placeholder((64,), "float32", "A")
    B = te.placeholder((64,), "float32", "B")
    C = te.compute((64,), lambda i: body(A, B, i), "C")
    wl = Workload(
        name="va", inputs=[A, B], output=C, reference=None, flops=64.0,
        shape=(64,),
    )
    params = {"n_dpus": 4, "n_tasklets": 2, "cache": 8, "unroll": 0}
    with pytest.raises(LoweringError, match=f"stage 'C' .* {op!r}"):
        lower(generate_schedule(wl, params))
