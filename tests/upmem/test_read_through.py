"""Kernel normalisation in the vector plan: reading through WRAM staging,
folding the block loop, the slabbed scan, the scan under a lane mask and
the scalar path's weak-number promotion."""

import numpy as np
import pytest

import repro
from repro.autotune.compile import default_engine
from repro.graph import gptj_model_graph
from repro.tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    IfThenElse,
    IntImm,
    Min,
    SeqStmt,
    Var,
    iter_stmts,
)
from repro.upmem import FunctionalExecutor, plan_for
from repro.upmem.vectorize import expr, ops
from repro.workloads import SIZED_WORKLOADS, tensor_ops
from repro.workloads.tensor_ops import mtv

from ..lowering.golden_corpus import FAMILIES, draws
from .test_vectorize import _O_M, _tile_module


def _all_modes(module, feed, monkeypatch):
    """Output bytes per simulation mode."""
    got = {}
    for mode in ("scalar", "vector", "verify"):
        monkeypatch.setenv("REPRO_SIM_MODE", mode)
        out, = FunctionalExecutor(module).run(feed)
        got[mode] = out.tobytes()
    return got


# ---------------------------------------------------------------------------
# legality: one toy kernel, and one variant per clause that breaks only it
# ---------------------------------------------------------------------------

_IN = Buffer("In", (32,), "float32")
_FEED = {"In": np.random.default_rng(7).standard_normal(32).astype(np.float32)}


def _staged_sum(
    base=lambda b, o: b * 8 + o * 4,
    tile=32,
    w_size=4,
    w_offset=0,
    before_dma=lambda m, w, o: [],
    after_dma=lambda m, w, o: [],
    after_loop=lambda m, w, o: [],
    prologue=lambda m, w: [],
    rebind=False,
):
    """Four DPUs, each summing eight elements of its copy of ``In`` in
    two staged blocks of four::

        for o in range(2):
            dma_copy(W[0] <- M[b * 8 + o * 4], n=4)
            for k in range(4):
                O_m[0, 0] = O_m[0, 0] + W[k]
    """
    b, o = Var("b"), Var("o")
    k = o if rebind else Var("k")  # rebind: the scan reuses the block's variable
    m = Buffer("In_m", (tile,), "float32", scope="mram")
    w = Buffer("W", (w_size,), "float32", scope="wram")
    o_m = _O_M[4]
    zero = IntImm(0)
    acc = BufferLoad(o_m, [zero, zero])
    body = SeqStmt([
        *before_dma(m, w, o),
        DmaCopy(w, [IntImm(w_offset)], m, [base(b, o)], 4),
        *after_dma(m, w, o),
        For(k, 4, BufferStore(o_m, acc + BufferLoad(w, [k]), [zero, zero])),
        *after_loop(m, w, o),
    ])
    kernel = SeqStmt([*prologue(m, w), For(o, 2, body)])
    return _tile_module(kernel, b, 4, 4, wram=[w], h2d=(_IN, m))


def _store(buffer, value, *index):
    return BufferStore(buffer, value, [IntImm(i) for i in index])


#: name -> (keyword arguments of _staged_sum, forwarded, folded)
_VARIANTS = {
    "legal": ({}, 1, 1),
    "burst-can-clip": ({"tile": 28}, 0, 0),
    "burst-fills-part-of-w": ({"w_size": 8}, 0, 0),
    "burst-at-an-offset-in-w": ({"w_offset": 1}, 0, 0),
    "tile-stored-to": (
        {"prologue": lambda m, w: [_store(m, 7.0, 2)]}, 0, 0,
    ),
    "read-before-its-dma": (
        {"before_dma": lambda m, w, o: [
            _store(_O_M[4], BufferLoad(w, [IntImm(1)]), 0, 1)
        ]}, 0, 0,
    ),
    "two-writers": (
        {"after_dma": lambda m, w, o: [_store(w, 1.5, 3)]}, 0, 0,
    ),
    "source-of-a-later-dma": (
        {"after_loop": lambda m, w, o: [
            DmaCopy(_O_M[4], [IntImm(0), IntImm(2)], w, [IntImm(0)], 2)
        ]}, 0, 0,
    ),
    "fold-with-another-stride": (
        {"base": lambda b, o: b * 8 + o * 2}, 1, 0,
    ),
    "fold-with-a-non-affine-index": (
        {"base": lambda b, o: b * 8 + o * o * 4}, 1, 0,
    ),
    # After ``for o in range(4)`` the burst's ``o`` means something else.
    "base-variable-rebound": ({"rebind": True}, 0, 0),
}


class TestLegality:
    @pytest.mark.parametrize("name", list(_VARIANTS))
    def test_each_clause_alone(self, name, monkeypatch):
        kwargs, forwarded, folded = _VARIANTS[name]
        module = _staged_sum(**kwargs)
        plan = plan_for(module)
        assert (plan.forwarded, plan.folded) == (forwarded, folded)
        if not forwarded:
            assert plan.kernel is module.kernel  # left exactly as lowered
        got = _all_modes(module, _FEED, monkeypatch)
        assert got["scalar"] == got["vector"] == got["verify"]
        if name == "legal":
            rows = _FEED["In"].reshape(4, 8)
            want = np.zeros((4, 4), np.float32)
            for lane in range(4):
                for x in rows[lane]:
                    want[lane, 0] += x
            assert got["vector"] == want.tobytes()

    def test_the_module_keeps_the_lowered_kernel(self):
        """The scalar interpreter — verify's reference — must run what
        lowering produced, not what the plan compiled."""
        module = _staged_sum()
        before = module.kernel
        plan = plan_for(module)
        assert module.kernel is before and plan.kernel is not before
        assert not any(isinstance(s, DmaCopy) for s in iter_stmts(plan.kernel))


# ---------------------------------------------------------------------------
# the programs the benchmark runs keep their sites
# ---------------------------------------------------------------------------

#: (op, size, elements trimmed) -> (staging bursts read through, block
#: loops folded) at O3 with default params: what ``perf``'s ``kernels``
#: workload executes (it trims the 1-D ops by a seeded multiple of 64).
_KERNELS = {
    ("va", "4MB", 64 * 37): (2, 0),
    ("geva", "4MB", 64 * 5): (2, 0),
    ("red", "64MB", 64 * 61): (1, 0),  # a tail: the scan's extent varies
    ("red", "64MB", 0): (1, 1),
    ("mtv", "64MB", 0): (2, 1),
    ("gemv", "64MB", 0): (2, 1),
    ("ttv", "64MB", 0): (2, 1),
    ("mmtv", "64MB", 0): (2, 1),
}

#: The four PIM programs of a GPT-J decode layer at capacity 8 and 12
#: (six: the attention MMTVs come in both capacities).  The FC MTVs
#: split their reduction across DPUs (``small_grid_params``): ``qkv_fc``
#: down to 64 elements a DPU, one 64-element cache block, no block loop
#: left to fold; ``proj`` to 80, five 16-element blocks (the cache tile
#: divides the share), whose loop folds.  ``proj``'s B tile is its GELU
#: prologue's product, staged and read through like an input.
_DECODE = {
    ("mtv", (896, 128)): (2, 0),  # qkv_fc (qkv_gen and fc were (2, 0))
    ("mtv", (128, 640)): (2, 1),  # proj (attn_proj and fc_proj were (2, 0))
    ("mmtv", (4, 8, 32)): (2, 0),  # attn_score: one block
    ("mmtv", (4, 32, 8)): (2, 0),  # attn_value: one block
    ("mmtv", (4, 12, 32)): (2, 0),
    ("mmtv", (4, 32, 12)): (2, 0),  # two blocks, the second one short
}


class TestPinnedSites:
    @pytest.mark.parametrize("op,size,trim", list(_KERNELS))
    def test_kernels_programs(self, op, size, trim):
        *outer, last = SIZED_WORKLOADS[op][size]
        wl = getattr(tensor_ops, op)(*outer, last - trim)
        plan = plan_for(repro.compile(wl, target="upmem").lowered)
        assert (plan.forwarded, plan.folded) == _KERNELS[op, size, trim]

    def test_decode_layer_programs(self):
        seen = {}
        for capacity in (8, 12):
            graph = gptj_model_graph(layers=1, capacity=capacity)
            for node in graph.nodes:
                exe = repro.compile(
                    node.workload, target="upmem", params=node.params
                )
                plan = plan_for(exe.lowered)
                key = (node.workload.name, tuple(node.workload.shape))
                seen[key] = (plan.forwarded, plan.folded)
        assert seen == _DECODE

    @pytest.mark.parametrize("k_dpus", [1, 8])
    def test_a_staging_buffer_read_through_is_never_allocated(
        self, k_dpus, monkeypatch
    ):
        """An FC projection's kernel reads its A and B tiles through their WRAM
        staging buffers, so a chunk allocates only the accumulator's; the
        scalar path, which runs the kernel as lowered, still zeroes and
        fills all three, and verify agrees with it byte for byte."""
        wl = mtv(128, 512)
        params = {"m_dpus": 64, "k_dpus": k_dpus, "n_tasklets": 16,
                  "cache": 64, "host_threads": 1, "unroll": 0}
        module = repro.compile(wl, target="upmem", params=params).lowered
        plan = plan_for(module)
        assert plan.forwarded == 2
        assert {b.name for b in module.wram_buffers} == {
            "A_wram", "B_wram", "C.rf_wram" if k_dpus > 1 else "C_wram"
        }
        assert [buf.name for buf, _, _ in plan._zeroed] == [
            "C.rf_wram" if k_dpus > 1 else "C_wram"
        ]
        inputs = wl.random_inputs(4)
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        out, = FunctionalExecutor(module).run(inputs)
        np.testing.assert_allclose(
            out, wl.reference_output(inputs), rtol=1e-4, atol=1e-4
        )


# ---------------------------------------------------------------------------
# the golden lowering corpus, executed
# ---------------------------------------------------------------------------


def _affordable(shape, budget=1 << 13):
    """``shape`` with its largest dimensions halved (rounding up, so an
    odd extent stays odd-ish) until the scalar interpreter affords it."""
    shape = list(shape)
    while np.prod(shape) > budget:
        d = int(np.argmax(shape))
        shape[d] = -(-shape[d] // 2)
    return tuple(shape)


@pytest.mark.parametrize("family", FAMILIES)
def test_golden_corpus_draws_under_verify(family, monkeypatch):
    """Every sketch draw of the lowering corpus, at O3, runs the rewritten
    kernel (vector) against the lowered one (scalar) bit for bit.  A grid
    of more than 64 DPUs (a draw may ask for 2048 padded tiles however
    small the tensor) runs its first and last 32 — the boundary DPUs are
    the last ones."""
    monkeypatch.setenv("REPRO_SIM_MODE", "verify")
    ran = forwarded = 0
    for draw_id, fam, shape, params in draws():
        if fam != family:
            continue
        wl = getattr(tensor_ops, family)(*_affordable(shape))
        module = default_engine().compile(wl, params, opt_level="O3").module
        if module is None:
            continue  # the draw's grid does not fit the smaller shape
        inputs = wl.random_inputs(0)
        fexec = FunctionalExecutor(module)
        state = fexec.prepare(inputs)
        grid = module.n_dpus
        if grid <= 64:
            fexec.run_points([state], range(grid))
            np.testing.assert_allclose(
                fexec.finalize(state)[0], wl.reference_output(inputs),
                rtol=1e-3, atol=1e-3, err_msg=draw_id,
            )
        else:
            fexec.run_points([state], range(32))
            fexec.run_points([state], range(grid - 32, grid))
        plan = plan_for(module)
        ran += 1
        forwarded += plan.forwarded
    assert ran >= 20 and forwarded >= ran


# ---------------------------------------------------------------------------
# the scan: slabs, lane masks
# ---------------------------------------------------------------------------


class TestSlabbedScan:
    @pytest.mark.parametrize("steps", [1, 7, 128])
    def test_any_slab_equals_one_scan(self, steps, monkeypatch):
        """Cutting the fold anywhere is the same fold: 1, 7 and n steps
        per slab give the bytes of the unslabbed scan (and of scalar)."""
        wl = mtv(48, 128)
        params = {"m_dpus": 8, "k_dpus": 1, "n_tasklets": 2, "cache": 16,
                  "host_threads": 1, "unroll": 0}
        module = default_engine().compile(wl, params, opt_level="O3").module
        assert plan_for(module).folded == 1
        inputs = wl.random_inputs(3)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        whole, = FunctionalExecutor(module).run(inputs)
        whole = whole.tobytes()
        lanes = module.n_dpus
        monkeypatch.setattr(ops, "_SCAN_BYTES", steps * lanes * 4)
        slabs = set()
        workspace = expr._Ctx.workspace

        def spy(ctx, use, shape, dtype):
            if use == "scan":
                slabs.add(shape[1] - 1)
            return workspace(ctx, use, shape, dtype)

        monkeypatch.setattr(expr._Ctx, "workspace", spy)
        slabbed, = FunctionalExecutor(module).run(inputs)
        assert slabs == {steps}
        assert slabbed.tobytes() == whole
        monkeypatch.setenv("REPRO_SIM_MODE", "scalar")
        scalar, = FunctionalExecutor(module).run(inputs)
        assert scalar.tobytes() == whole

    def test_scan_and_fold_buffers_never_alias(self, monkeypatch):
        """16 lanes, 15-step slabs: the ``(L, slab + 1)`` scan buffer and
        the ``(slab + 1, L)`` transposed one have one shape, and are still
        two arrays (one would make NumPy copy through a temporary)."""
        wl = mtv(48, 128)
        params = {"m_dpus": 16, "k_dpus": 1, "n_tasklets": 1, "cache": 16,
                  "host_threads": 1, "unroll": 0}
        module = default_engine().compile(wl, params, opt_level="O3").module
        assert plan_for(module).folded == 1 and module.n_dpus == 16
        inputs = wl.random_inputs(5)
        monkeypatch.setenv("REPRO_SIM_MODE", "scalar")
        scalar, = FunctionalExecutor(module).run(inputs)
        monkeypatch.setattr(ops, "_SCAN_BYTES", 15 * 16 * 4)
        held = {}
        workspace = expr._Ctx.workspace

        def spy(ctx, use, shape, dtype):
            held.setdefault(use, set()).add(shape)
            held[use, shape] = out = workspace(ctx, use, shape, dtype)
            return out

        monkeypatch.setattr(expr._Ctx, "workspace", spy)
        monkeypatch.setenv("REPRO_SIM_MODE", "vector")
        vector, = FunctionalExecutor(module).run(inputs)
        assert held["scan"] == held["fold"] == {(16, 16)}
        scan, fold = held["scan", (16, 16)], held["fold", (16, 16)]
        assert not np.shares_memory(scan, fold)
        assert vector.tobytes() == scalar.tobytes()

    def test_lane_dependent_trip_counts_across_slabs(self, monkeypatch):
        """``for k in range(b * 3 + 1)``: every lane picks its own prefix,
        whichever slab it ends in."""
        b, k = Var("b"), Var("k")
        src = Buffer("In", (16,), "float32")
        m = Buffer("In_m", (16,), "float32", scope="mram")
        zero = IntImm(0)
        acc = BufferLoad(_O_M[2], [zero, zero])
        kernel = For(
            k, b * 3 + 1,
            BufferStore(_O_M[2], acc + BufferLoad(m, [k]), [zero, zero]),
        )
        module = _tile_module(kernel, b, 6, 2, h2d=(src, m))
        feed = {"In": np.random.default_rng(1).standard_normal(16).astype(
            np.float32)}
        monkeypatch.setattr(ops, "_SCAN_BYTES", 4 * 6 * 4)
        got = _all_modes(module, feed, monkeypatch)
        assert got["scalar"] == got["vector"] == got["verify"]


def _ops(op):
    """Every op of a compiled tree."""
    yield op
    for name in ("ops", "body_op", "then_op", "else_op", "generic"):
        below = getattr(op, name, None)
        for child in below if isinstance(below, list) else [below]:
            if child is not None:
                yield from _ops(child)


class TestScanUnderALaneMask:
    def test_a_guarded_dpu_keeps_the_scan(self, monkeypatch):
        """384 rows on 64 DPUs x 4 tasklets x 2 rows: the last DPU's
        rows 6 and 7 are off the tensor, so the reduction runs under a
        lane mask — as one scan, not element by element."""
        wl = mtv(384, 128)
        params = {"m_dpus": 64, "k_dpus": 1, "n_tasklets": 4, "cache": 64,
                  "host_threads": 1, "unroll": 0}
        module = default_engine().compile(wl, params, opt_level="O3").module
        plan = plan_for(module)
        assert any(isinstance(s, IfThenElse) for s in iter_stmts(plan.kernel))
        scans = [
            op for op in _ops(plan.kernel_op)
            if isinstance(op, ops._VecReduceOp)
        ]
        assert scans
        masked, looped = [], []
        for scan in scans:
            run = scan.run

            def spy(ctx, run=run):
                masked.append(ctx.mask is not None)
                return run(ctx)

            monkeypatch.setattr(scan, "run", spy)
            monkeypatch.setattr(
                scan.generic, "run", lambda ctx: looped.append(ctx)
            )
        monkeypatch.setenv("REPRO_SIM_MODE", "verify")
        inputs = wl.random_inputs(5)
        out, = FunctionalExecutor(module).run(inputs)
        assert any(masked) and not looped
        np.testing.assert_allclose(
            out, wl.reference_output(inputs), rtol=1e-3, atol=1e-4
        )

    def test_masked_lanes_keep_their_accumulator(self, monkeypatch):
        """Lanes 2 and 3 are masked off: their ``O_m`` stays as stored
        before the guard, and their (longer) trip counts are excused."""
        b, k = Var("b"), Var("k")
        src = Buffer("In", (8,), "float32")
        m = Buffer("In_m", (8,), "float32", scope="mram")
        zero = IntImm(0)
        acc = BufferLoad(_O_M[2], [zero, zero])
        scan = For(
            k, b * 4 + 2,
            BufferStore(_O_M[2], acc + BufferLoad(m, [k]), [zero, zero]),
        )
        kernel = SeqStmt([
            BufferStore(_O_M[2], b + 0.5, [zero, zero]),
            IfThenElse(b < 2, scan),
        ])
        module = _tile_module(kernel, b, 4, 2, h2d=(src, m))
        feed = {"In": np.arange(1, 9, dtype=np.float32)}
        got = _all_modes(module, feed, monkeypatch)
        assert got["scalar"] == got["vector"] == got["verify"]
        want = np.zeros((4, 2), np.float32)
        want[:, 0] = [0.5 + 3, 1.5 + 21, 2.5, 3.5]
        assert got["vector"] == want.tobytes()


# ---------------------------------------------------------------------------
# weak Python numbers next to NumPy values
# ---------------------------------------------------------------------------


class TestWeakNumbers:
    """The interpreter's variables are Python numbers: next to a float32
    they compute in float32.  Batched they are int64/float64 arrays,
    which used to pull the arithmetic into float64 and round twice."""

    @staticmethod
    def _module(value):
        """``for k in range(4): O_m[0, k] = value(A_m[k], b, k)`` on a
        4-point grid, every lane holding the whole of ``In``."""
        b, k = Var("b"), Var("k")
        src = Buffer("In", (4,), "float32")
        a_m = Buffer("A_m", (4,), "float32", scope="mram")
        kernel = For(
            k, 4,
            BufferStore(
                _O_M[4], value(BufferLoad(a_m, [k]), b, k), [IntImm(0), k]
            ),
        )
        return _tile_module(kernel, b, 4, 4, h2d=(src, a_m))

    @pytest.mark.parametrize(
        "value",
        [
            lambda a, b, k: a * (b + 1) * a,
            lambda a, b, k: a * (k + 1) * a,
            lambda a, b, k: (a + (b + 1)) * a,
            lambda a, b, k: (b + 1) * a * a,
            lambda a, b, k: Min(a, b + 1) * a,
        ],
        ids=["lane-var", "axis-var", "sum", "lane-var-first", "min"],
    )
    def test_float32_times_an_integer_variable(self, value, monkeypatch):
        # ``A_m[k] * (b + 1)`` alone cannot tell the two apart: one
        # float32 product is exact in float64.  A second operation on
        # the unrounded product can.
        rng = np.random.default_rng(11)
        module = self._module(value)
        for _ in range(8):
            feed = {"In": rng.standard_normal(4).astype(np.float32)}
            got = _all_modes(module, feed, monkeypatch)
            assert got["scalar"] == got["vector"] == got["verify"]
