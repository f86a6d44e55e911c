"""Host prologues: element-wise stages over a kernel operand, before it.

:func:`repro.workloads.with_prologue` rebuilds a sketched workload to
read a host-computed product in place of one of its inputs; the sketch
caches the product (:attr:`Workload.kernel_inputs`) and leaves the
stages unbound, so the lowering emits them as ``host_pre`` statements
and ships the product, not the raw operand, to the DPUs.  Generated
cases draw the base program's extents and params and an element-wise
prologue on ``B`` over ``exp``/``tanh``/``/``/``+``/``*`` (GPT-J's GELU
among them), sometimes followed by a residual epilogue, and piecewise
prologues: a ``select`` over a threshold on the last index picks one of
two such expressions (or a number, or the index) per element, as the
fused projection's prologue passes its attention part through and
applies GELU to the rest.  The scalar interpreter and the vector plan
must agree on every byte, and the fused module must equal the prologue
reference followed by the base reference within the tolerance ``perf``
checks graph outputs with.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import te
from repro.autotune.sketch import generate_schedule, param_space
from repro.lowering import LoweringError, lower
from repro.pipeline import workload_signature
from repro.tir import LT, FloatImm, IntImm, Select, Var
from repro.upmem import FunctionalExecutor
from repro.upmem.emitter import emit_host_pseudocode
from repro.upmem.vectorize.expr import _ExprCompiler
from repro.workloads import Workload, mmtv, mtv, va, with_prologue

from .test_host_epilogues import _TOLERANCE, _elementwise, _residual, _small

_C = np.float32(np.sqrt(2.0 / np.pi))


def _gelu_te(a):
    return 0.5 * a * (1.0 + te.tanh(float(_C) * (a + 0.044715 * (a * a * a))))


def _gelu_np(a):
    return np.float32(0.5) * a * (
        np.float32(1.0) + np.tanh(_C * (a + np.float32(0.044715) * (a * a * a)))
    )


def _prologued(base, f_te, f_np, flops=0.0):
    """``base`` with ``f`` applied element-wise to its ``B`` first."""
    (B,) = [t for t in base.inputs if t.name == "B"]
    return with_prologue(
        base, "B",
        lambda X: te.compute(B.shape, lambda *i: f_te(X[i]), "P"),
        lambda x: f_np(x.astype(np.float32)), flops,
    )


@st.composite
def _case(draw):
    """``(workload, params, inputs)``: a base mtv or mmtv with a
    generated prologue on ``B`` (an mtv sometimes with a residual
    epilogue too), small params."""
    if draw(st.booleans()):
        base = mtv(draw(st.integers(1, 40)), draw(st.integers(1, 150)))
    else:
        base = mmtv(
            draw(st.integers(1, 5)), draw(st.integers(1, 12)),
            draw(st.integers(1, 40)),
        )
    f_te, f_np = draw(st.one_of(
        st.just((_gelu_te, _gelu_np)), _elementwise()
    ))
    wl = _prologued(base, f_te, f_np)
    if base.name == "mtv" and draw(st.booleans()):
        wl = _residual(wl)
    caps = {"n_tasklets": 4, "host_threads": 4}
    params = {
        key: draw(st.sampled_from(_small(domain, caps.get(key, 8))))
        for key, domain in param_space(base).items()
    }
    return wl, params, wl.random_inputs(draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(_case())
def test_scalar_equals_vector_and_the_reference(case):
    wl, params, inputs = case
    module = repro.compile(wl, params=params).lowered
    assert module.host_pre
    on_dpus = {spec.global_buffer.name for spec in module.transfer("h2d")}
    assert "P" in on_dpus and "B" not in on_dpus
    (vector,) = FunctionalExecutor(module, mode="vector").run(inputs)
    (scalar,) = FunctionalExecutor(module, mode="scalar").run(inputs)
    assert vector.tobytes() == scalar.tobytes()
    want = np.asarray(wl.reference_output(inputs), dtype=np.float64)
    assert np.isfinite(want).all()
    scale = float(np.max(np.abs(want))) or 1.0
    assert np.max(np.abs(vector - want)) / scale <= _TOLERANCE


# ---------------------------------------------------------------------------
# piecewise prologues: a select per element
# ---------------------------------------------------------------------------


def _piecewise(base, threshold, arms, scale=None):
    """``base`` with ``select(k < threshold, first(x), second(x))`` over
    its ``B`` first, ``k`` the last index; ``arms`` are ``(te_fn,
    np_fn)`` pairs of the element ``x`` and the index array ``k``.  With
    a ``scale``, the select's value is multiplied by it before the
    store, so its float32 dtype reaches more arithmetic than a store."""
    (first_te, first_np), (second_te, second_np) = arms
    (B,) = [t for t in base.inputs if t.name == "B"]

    def reference(x):
        x = x.astype(np.float32)
        k = np.broadcast_to(np.arange(x.shape[-1]), x.shape)
        out = np.where(
            k < threshold, first_np(x, k), second_np(x, k)
        ).astype(np.float32)
        return out if scale is None else out * scale

    def body(X, i):
        value = te.select(
            i[-1] < threshold, first_te(X[i], i[-1]), second_te(X[i], i[-1])
        )
        return value if scale is None else value * scale

    return with_prologue(
        base, "B", lambda X: te.compute(B.shape, lambda *i: body(X, i), "P"),
        reference, flops=0.0,
    )


@st.composite
def _arm(draw):
    """One arm of a piecewise prologue: a generated expression of the
    element, a Python number (a weak scalar the select casts to
    float32) or the index itself (an int the select casts)."""
    kind = draw(st.sampled_from(["expr", "expr", "number", "index"]))
    if kind == "number":
        c = draw(st.sampled_from([0.0, 0.1, -2.5]))
        return (lambda x, k: c), (lambda x, k: np.float32(c))
    if kind == "index":
        return (lambda x, k: k), (lambda x, k: k.astype(np.float32))
    f_te, f_np = draw(st.one_of(st.just((_gelu_te, _gelu_np)), _elementwise()))
    return (lambda x, k: f_te(x)), (lambda x, k: f_np(x))


@st.composite
def _piecewise_case(draw):
    if draw(st.booleans()):
        base = mtv(draw(st.integers(1, 40)), draw(st.integers(1, 150)))
    else:
        base = mmtv(
            draw(st.integers(1, 5)), draw(st.integers(1, 12)),
            draw(st.integers(1, 40)),
        )
    threshold = draw(st.integers(-1, base.shape[-1] + 1))
    scale = draw(st.sampled_from([None, 0.3]))
    wl = _piecewise(base, threshold, (draw(_arm()), draw(_arm())), scale)
    caps = {"n_tasklets": 4, "host_threads": 4}
    params = {
        key: draw(st.sampled_from(_small(domain, caps.get(key, 8))))
        for key, domain in param_space(base).items()
    }
    return wl, params, wl.random_inputs(draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(_piecewise_case())
def test_piecewise_scalar_equals_vector_and_the_reference(case):
    wl, params, inputs = case
    module = repro.compile(wl, params=params).lowered
    (prologue,) = module.host_pre
    assert "select(" in repr(prologue)
    (vector,) = FunctionalExecutor(module, mode="vector").run(inputs)
    (scalar,) = FunctionalExecutor(module, mode="scalar").run(inputs)
    assert vector.tobytes() == scalar.tobytes()
    want = np.asarray(wl.reference_output(inputs), dtype=np.float64)
    assert np.isfinite(want).all()
    scale = float(np.max(np.abs(want))) or 1.0
    assert np.max(np.abs(vector - want)) / scale <= _TOLERANCE


class TestSelect:
    def test_a_dpu_stage_refuses_it(self):
        A = te.placeholder((64,), "float32", "A")
        B = te.placeholder((64,), "float32", "B")
        C = te.compute((64,), lambda i: te.select(i < 8, A[i], B[i]), "C")
        wl = Workload(
            name="va", inputs=[A, B], output=C, reference=None, flops=64.0,
            shape=(64,),
        )
        params = {"n_dpus": 4, "n_tasklets": 2, "cache": 8, "unroll": 0}
        with pytest.raises(LoweringError, match="stage 'C' .* 'select'"):
            lower(generate_schedule(wl, params))

    def test_the_signature_sees_the_threshold(self):
        arms = ((lambda x, k: x, lambda x, k: x),) * 2
        eight, nine = (
            workload_signature(_piecewise(mtv(16, 32), t, arms)) for t in (8, 9)
        )
        assert eight != nine
        assert eight == workload_signature(_piecewise(mtv(16, 32), 8, arms))

    def test_an_unbatched_select_runs_only_its_taken_arm(self):
        """A select of scalars evaluates as the interpreter does: the
        taken arm only, cast to the select's dtype."""
        k = Var("k")
        fn, dep = _ExprCompiler(SimpleNamespace(lane_vars=())).compile(
            Select(LT(IntImm(1), IntImm(2)), FloatImm(0.5), k)
        )
        value = fn(None)  # the untaken arm's unbound variable never runs
        assert dep == 0 and type(value) is np.float32 and value == 0.5


# ---------------------------------------------------------------------------
# the fused program's shape
# ---------------------------------------------------------------------------


class TestFusedProgram:
    PARAMS = {
        "m_dpus": 4, "k_dpus": 2, "n_tasklets": 2, "cache": 16,
        "host_threads": 1, "unroll": 0,
    }

    def _gelu(self, base=None):
        return _prologued(base or mtv(32, 64), _gelu_te, _gelu_np, 8.0 * 64)

    def test_keeps_the_base_identity(self):
        base = mtv(32, 64)
        wl = self._gelu(base)
        assert (wl.name, wl.shape, wl.params) == (base.name, base.shape, base.params)
        assert wl.const_inputs == base.const_inputs
        assert [t.name for t in wl.inputs] == ["A", "B"]
        assert [t.name for t in wl.kernel_inputs] == ["A", "P"]
        assert wl.flops == base.flops + 8.0 * 64
        assert param_space(wl) == param_space(base)

    def test_an_epilogue_keeps_the_prologue(self):
        wl = _residual(self._gelu())
        assert [t.name for t in wl.inputs] == ["A", "B", "R"]
        assert [t.name for t in wl.kernel_inputs] == ["A", "P"]
        module = repro.compile(wl, params=self.PARAMS).lowered
        # GELU first; then the rfactor fold and the residual add.
        assert (len(module.host_pre), len(module.host_post)) == (1, 2)

    def test_an_elementwise_base(self):
        """A base without a reduction (``va``) takes a prologue too."""
        wl = _prologued(va(64), te.tanh, np.tanh)
        params = {"n_dpus": 4, "n_tasklets": 2, "cache": 8, "unroll": 0}
        exe = repro.compile(wl, params=params)
        assert [s.global_buffer.name for s in exe.lowered.transfer("h2d")] == [
            "A", "P"
        ]
        inputs = wl.random_inputs(3)
        (out,) = exe.run(inputs)
        np.testing.assert_allclose(
            out, inputs["A"] + np.tanh(inputs["B"]), rtol=1e-6
        )

    def test_the_product_crosses_in_the_operands_place(self):
        plain = repro.compile(mtv(32, 64), params=self.PARAMS).lowered
        fused = repro.compile(self._gelu(), params=self.PARAMS).lowered
        assert [s.global_buffer.name for s in fused.transfer("h2d")] == ["A", "P"]
        assert [b.name for b in fused.inputs] == ["A", "B"]
        assert [b.name for b in fused.intermediates] == ["P", "C.rf"]
        # The same tiles cross: only the source buffer changed.
        for a, b in zip(plain.transfers, fused.transfers):
            assert (a.direction, a.shape, a.tile_bytes) == (
                b.direction, b.shape, b.tile_bytes
            )

    def test_emitter_prints_the_prologue_before_its_transfer(self):
        text = emit_host_pseudocode(
            repro.compile(self._gelu(), params=self.PARAMS).lowered
        )
        prologue = text.index("// host prologue:")
        assert "P[P_i0] = " in text and "tanh(" in text
        assert prologue < text.index("P -> P_mram") < text.index("dpu_launch")

    def test_host_line_prices_the_prologue(self):
        base = repro.compile(mtv(32, 64), params=self.PARAMS).profile().latency
        lat = repro.compile(self._gelu(), params=self.PARAMS).profile().latency
        assert lat.host > base.host
        assert (lat.h2d, lat.kernel, lat.d2h) == (base.h2d, base.kernel, base.d2h)

    def test_the_signature_sees_the_prologue(self):
        plain = workload_signature(mtv(32, 64))
        gelu = workload_signature(self._gelu())
        tanh = workload_signature(
            _prologued(mtv(32, 64), te.tanh, np.tanh)
        )
        assert len({plain, gelu, tanh}) == 3
        assert gelu == workload_signature(self._gelu())

    @pytest.mark.parametrize(
        "make,operand,match",
        [
            (lambda: mtv(8, 8), "A", "non-resident input"),
            (lambda: mtv(8, 8), "X", "non-resident input"),
            (lambda: _residual(mtv(8, 8)), "B", "one-stage base"),
        ],
    )
    def test_refuses(self, make, operand, match):
        with pytest.raises(ValueError, match=match):
            with_prologue(
                make(), operand, lambda X: X, lambda x: x, flops=0.0
            )

    def test_refuses_a_reshaping_prologue(self):
        with pytest.raises(ValueError, match="makes shape"):
            with_prologue(
                va(8), "B",
                lambda X: te.compute((4,), lambda i: X[i], "P"),
                lambda x: x[:4], flops=0.0,
            )
