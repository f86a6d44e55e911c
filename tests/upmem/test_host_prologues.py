"""Host prologues: element-wise stages over a kernel operand, before it.

:func:`repro.workloads.with_prologue` rebuilds a sketched workload to
read a host-computed product in place of one of its inputs; the sketch
caches the product (:attr:`Workload.kernel_inputs`) and leaves the
stages unbound, so the lowering emits them as ``host_pre`` statements
and ships the product, not the raw operand, to the DPUs.  Generated
cases draw the base program's extents and params and an element-wise
prologue on ``B`` over ``exp``/``tanh``/``/``/``+``/``*`` (GPT-J's GELU
among them), sometimes followed by a residual epilogue.  The scalar
interpreter and the vector plan must agree on every byte, and the fused
module must equal the prologue reference followed by the base
reference within the tolerance ``perf`` checks graph outputs with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import te
from repro.autotune.sketch import param_space
from repro.upmem import FunctionalExecutor
from repro.upmem.emitter import emit_host_pseudocode
from repro.workloads import mmtv, mtv, va, with_prologue

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
        from repro.pipeline import workload_signature

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
