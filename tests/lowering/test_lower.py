"""Lowering: structure of the generated module and functional correctness."""

import numpy as np
import pytest

from repro import te
from repro.lowering import LoweringError, lower
from repro.schedule import Schedule
from repro.tir import DmaCopy, For, ForKind, IfThenElse, iter_stmts
from repro.upmem import FunctionalExecutor

from ..conftest import make_mtv_schedule, run_and_check


def make_va_schedule(n, n_dpus=4, n_tasklets=2, cache=8):
    A = te.placeholder((n,), "float32", "A")
    B = te.placeholder((n,), "float32", "B")
    C = te.compute((n,), lambda i: A[i] + B[i], "C")
    sch = Schedule(C)
    s = sch[C]
    (i,) = s.op.axis
    i_dpu, rest = s.split(i, nparts=n_dpus)
    i_thr, r2 = s.split(rest, nparts=n_tasklets)
    i_blk, i_in = s.split(r2, factor=cache)
    s.reorder(i_dpu, i_thr, i_blk, i_in)
    s.bind(i_dpu, "blockIdx.x")
    s.bind(i_thr, "threadIdx.x")
    sch.cache_read(C, A, "wram").compute_at(s, i_blk)
    sch.cache_read(C, B, "wram").compute_at(s, i_blk)
    sch.cache_write(C, "wram").reverse_compute_at(s, i_blk)
    return sch


class TestModuleStructure:
    def test_grid_dims(self):
        mod = lower(make_mtv_schedule(64, 32, m_dpus=4))
        assert [(d.tag, d.extent) for d in mod.grid] == [("blockIdx.x", 4)]
        assert mod.n_dpus == 4

    def test_2d_grid_with_rfactor(self):
        mod = lower(make_mtv_schedule(64, 32, m_dpus=4, k_dpus=2))
        tags = sorted((d.tag, d.extent) for d in mod.grid)
        assert tags == [("blockIdx.x", 4), ("blockIdx.y", 2)]
        assert mod.n_dpus == 8

    def test_tasklet_count(self):
        mod = lower(make_mtv_schedule(64, 32, n_tasklets=2))
        assert mod.n_tasklets == 2

    def test_transfer_directions(self):
        mod = lower(make_mtv_schedule(64, 32))
        dirs = {(t.global_buffer.name, t.direction) for t in mod.transfers}
        assert dirs == {("A", "h2d"), ("B", "h2d"), ("C", "d2h")}

    def test_transfer_tile_shapes(self):
        mod = lower(make_mtv_schedule(64, 32, m_dpus=4, n_tasklets=2))
        by_name = {t.global_buffer.name: t for t in mod.transfers}
        assert by_name["A"].shape == (16, 32)
        assert by_name["B"].shape == (32,)
        assert by_name["C"].shape == (16,)

    def test_rfactor_intermediate_is_d2h(self):
        mod = lower(make_mtv_schedule(64, 32, k_dpus=2))
        d2h = {t.global_buffer.name for t in mod.transfer("d2h")}
        assert any(name.endswith(".rf") for name in d2h)
        assert mod.host_post  # final reduction on the host

    def test_wram_buffers_registered(self):
        mod = lower(make_mtv_schedule(64, 32))
        names = {b.name for b in mod.wram_buffers}
        assert any("A" in n for n in names)
        assert any("C" in n for n in names)
        assert mod.wram_bytes_per_dpu() > 0

    def test_per_tasklet_wram_accounting(self):
        mod = lower(make_mtv_schedule(64, 32, n_tasklets=2))
        # caches attached under the tasklet loop are private per tasklet
        assert any(mod.wram_per_tasklet.values())

    def test_kernel_has_thread_binding_loop(self):
        mod = lower(make_mtv_schedule(64, 32, n_tasklets=2))
        tags = [
            s.thread_tag
            for s in iter_stmts(mod.kernel)
            if isinstance(s, For) and s.kind is ForKind.THREAD_BINDING
        ]
        assert "threadIdx.x" in tags

    def test_no_blockidx_inside_kernel(self):
        mod = lower(make_mtv_schedule(64, 32, m_dpus=4, k_dpus=2))
        for s in iter_stmts(mod.kernel):
            if isinstance(s, For) and s.kind is ForKind.THREAD_BINDING:
                assert not s.thread_tag.startswith("blockIdx")

    def test_unbound_schedule_rejected(self):
        A = te.placeholder((8,), "float32", "A")
        C = te.compute((8,), lambda i: A[i], "C")
        sch = Schedule(C)
        with pytest.raises(LoweringError):
            lower(sch)

    def test_unattached_cache_rejected(self):
        A = te.placeholder((8,), "float32", "A")
        C = te.compute((8,), lambda i: A[i], "C")
        sch = Schedule(C)
        s = sch[C]
        io, ii = s.split(s.op.axis[0], nparts=2)
        s.bind(io, "blockIdx.x")
        sch.cache_read(C, A, "wram")  # never compute_at'ed
        with pytest.raises(LoweringError):
            lower(sch)

    def test_boundary_checks_inserted_for_misaligned(self):
        mod = lower(make_mtv_schedule(37, 50))
        conds = [s for s in iter_stmts(mod.kernel) if isinstance(s, IfThenElse)]
        assert conds

    def test_no_checks_for_aligned(self):
        mod = lower(make_mtv_schedule(64, 32))
        conds = [s for s in iter_stmts(mod.kernel) if isinstance(s, IfThenElse)]
        assert not conds


class TestFunctionalCorrectness:
    def _check_mtv(self, m, k, **kwargs):
        sch = make_mtv_schedule(m, k, **kwargs)
        rng = np.random.default_rng(0)
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random(k, dtype=np.float32)
        run_and_check(sch, {"A": a, "B": b}, a @ b, opt_level="O0")

    def test_mtv_aligned(self):
        self._check_mtv(64, 32)

    def test_mtv_misaligned_rows(self):
        self._check_mtv(37, 32)

    def test_mtv_misaligned_cols(self):
        self._check_mtv(64, 50)

    def test_mtv_misaligned_both(self):
        self._check_mtv(37, 50)

    def test_mtv_rfactor(self):
        self._check_mtv(64, 64, k_dpus=2)

    def test_mtv_rfactor_misaligned(self):
        self._check_mtv(37, 50, k_dpus=2)

    def test_va(self):
        n = 100
        sch = make_va_schedule(n)
        rng = np.random.default_rng(1)
        a = rng.random(n, dtype=np.float32)
        b = rng.random(n, dtype=np.float32)
        run_and_check(sch, {"A": a, "B": b}, a + b, opt_level="O0")

    def test_va_single_element_tail(self):
        sch = make_va_schedule(97, n_dpus=4, n_tasklets=2, cache=8)
        rng = np.random.default_rng(2)
        a = rng.random(97, dtype=np.float32)
        b = rng.random(97, dtype=np.float32)
        run_and_check(sch, {"A": a, "B": b}, a + b, opt_level="O0")

    def test_missing_input_raises(self):
        mod = lower(make_mtv_schedule(64, 32))
        with pytest.raises(KeyError):
            FunctionalExecutor(mod).run({"A": np.zeros((64, 32), np.float32)})

    def test_wrong_shape_raises(self):
        mod = lower(make_mtv_schedule(64, 32))
        with pytest.raises(ValueError):
            FunctionalExecutor(mod).run(
                {
                    "A": np.zeros((4, 4), np.float32),
                    "B": np.zeros(32, np.float32),
                }
            )
