"""Scalar interpreter and the system-level latency model."""

import numpy as np
import pytest

import repro
from repro.lowering import LowerOptions, lower
from repro.tir import (
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    DmaCopy,
    For,
    IfThenElse,
    IntImm,
    Max,
    Min,
    Var,
)
from repro.upmem import UpmemConfig
from repro.upmem.interp import InterpError, Interpreter
from repro.upmem.system import PerformanceModel

from ..conftest import make_mtv_schedule


class TestInterpreter:
    def test_loop_store(self):
        buf = Buffer("A", (8,), "int32")
        arrays = {buf: np.zeros(8, np.int64)}
        i = Var("i")
        Interpreter(arrays).run(For(i, 8, BufferStore(buf, i * 2, [i])), {})
        assert list(arrays[buf]) == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_conditional(self):
        buf = Buffer("A", (8,), "int32")
        arrays = {buf: np.zeros(8, np.int64)}
        i = Var("i")
        body = IfThenElse(i < 4, BufferStore(buf, IntImm(1), [i]))
        Interpreter(arrays).run(For(i, 8, body), {})
        assert arrays[buf].sum() == 4

    def test_minmax(self):
        i = Var("i")
        interp = Interpreter({})
        assert interp.eval(Min(i, IntImm(2)), {i: 7}) == 2
        assert interp.eval(Max(i, IntImm(2)), {i: 7}) == 7

    def test_unbound_var_raises(self):
        with pytest.raises(InterpError):
            Interpreter({}).eval(Var("ghost"), {})

    def test_unbound_buffer_raises(self):
        """Every buffer a program touches is bound before it runs; one
        that is not is named, never made up as zeros."""
        buf, ghost = Buffer("A", (4,)), Buffer("ghost", (4,))
        arrays = {buf: np.zeros(4, np.float32)}
        copy = BufferStore(buf, BufferLoad(ghost, [IntImm(0)]), [IntImm(0)])
        with pytest.raises(InterpError, match="unbound buffer ghost"):
            Interpreter(arrays).run(copy, {})
        assert list(arrays) == [buf]

    def test_out_of_bounds_raises(self):
        buf = Buffer("A", (4,))
        arrays = {buf: np.zeros(4, np.float32)}
        with pytest.raises(InterpError):
            Interpreter(arrays).run(BufferStore(buf, IntImm(1), [IntImm(9)]), {})

    def test_dma_copy(self):
        w = Buffer("W", (4,), "float32", scope="wram")
        m = Buffer("M", (8,), "float32", scope="mram")
        arrays = {
            w: np.zeros(4, np.float32),
            m: np.arange(8, dtype=np.float32),
        }
        Interpreter(arrays).run(DmaCopy(w, [IntImm(0)], m, [IntImm(2)], 4), {})
        assert list(arrays[w]) == [2, 3, 4, 5]

    def test_dma_clamps_overrun(self):
        # DMA into the locally padded tail must not crash.
        w = Buffer("W", (4,), "float32", scope="wram")
        m = Buffer("M", (8,), "float32", scope="mram")
        arrays = {
            w: np.zeros(4, np.float32),
            m: np.arange(8, dtype=np.float32),
        }
        Interpreter(arrays).run(DmaCopy(w, [IntImm(0)], m, [IntImm(6)], 4), {})
        assert list(arrays[w][:2]) == [6, 7]

    def test_barrier_is_noop(self):
        Interpreter({}).run(Barrier(), {})


class TestPerformanceModel:
    def _profile(self, m=64, k=64, config=None, **kwargs):
        mod = lower(make_mtv_schedule(m, k, **kwargs))
        return PerformanceModel(config).profile(mod), mod

    def test_breakdown_positive(self):
        prof, _ = self._profile()
        lat = prof.latency
        assert lat.kernel > 0
        assert lat.d2h > 0
        assert lat.launch > 0
        assert lat.total == pytest.approx(
            lat.h2d + lat.kernel + lat.d2h + lat.host + lat.launch
        )

    def test_partitioned_input_is_resident(self):
        # A (the matrix) partitions exactly -> no per-run H2D; B is
        # broadcast to every DPU -> transferred.
        prof, mod = self._profile(64, 64, m_dpus=4)
        h2d_specs = mod.transfer("h2d")
        names = {t.global_buffer.name for t in h2d_specs}
        assert names == {"A", "B"}
        # Disabling residency must add A's traffic on top.
        cfg = UpmemConfig().with_(resident_partitioned_inputs=False)
        full = PerformanceModel(cfg).profile(mod)
        assert prof.latency.h2d > 0
        assert full.latency.h2d > prof.latency.h2d

    def test_residency_disabled_counts_everything(self):
        cfg = UpmemConfig().with_(resident_partitioned_inputs=False)
        with_res, _ = self._profile()
        without, _ = self._profile(config=cfg)
        assert without.latency.h2d > with_res.latency.h2d

    def test_more_tasklets_faster_kernel(self):
        one, _ = self._profile(256, 64, n_tasklets=1)
        many, _ = self._profile(256, 64, n_tasklets=8)
        assert many.latency.kernel < one.latency.kernel

    def test_more_dpus_faster_kernel(self):
        few, _ = self._profile(256, 64, m_dpus=2)
        many, _ = self._profile(256, 64, m_dpus=8)
        assert many.latency.kernel < few.latency.kernel

    def test_rfactor_adds_host_reduction(self):
        plain, _ = self._profile(64, 64, k_dpus=1)
        rf, _ = self._profile(64, 64, k_dpus=2)
        assert rf.latency.host > plain.latency.host

    def test_dpu_profile_fractions_sum_to_one(self):
        prof, _ = self._profile()
        frac = prof.dpu.fractions()
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-6)

    def test_gflops(self):
        prof, _ = self._profile()
        assert prof.gflops(2 * 64 * 64) > 0

    def test_transfer_modes_ordering(self):
        times = {}
        for mode in ("element", "bulk", "parallel"):
            mod = repro.compile(
                make_mtv_schedule(256, 64),
                options=LowerOptions(transfer_mode=mode),
            ).lowered
            assert mod.options.transfer_mode == mode
            times[mode] = PerformanceModel().profile(mod).latency.d2h
        assert times["parallel"] < times["bulk"] < times["element"]

    def test_config_with_override(self):
        cfg = UpmemConfig().with_(n_ranks=4)
        assert cfg.n_dpus == 256
        assert UpmemConfig().n_dpus == 2048
