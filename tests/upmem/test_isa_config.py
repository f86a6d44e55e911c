"""Instruction costing and hardware-configuration invariants."""

import pytest

from repro.tir import (
    Add,
    And,
    Buffer,
    BufferLoad,
    FloatImm,
    IntImm,
    Min,
    Mul,
    Sub,
    Var,
)
from repro.upmem.config import DEFAULT_CONFIG, UpmemConfig
from repro.upmem.isa import Counts, ExprCoster


@pytest.fixture
def coster():
    return ExprCoster(DEFAULT_CONFIG)


class TestExprCoster:
    def test_leaves_are_free(self, coster):
        assert coster.cost(Var("i")).slots == 0
        assert coster.cost(IntImm(3)).slots == 0
        assert coster.cost(FloatImm(1.0)).slots == 0

    def test_int_add_single_slot(self, coster):
        assert coster.cost(Add(Var("i"), IntImm(1))).slots == 1

    def test_float_ops_cost_more_than_int(self, coster):
        fi = Add(FloatImm(1.0), FloatImm(2.0))
        # float arithmetic is emulated on the DPU
        assert coster.cost(fi).slots > 1

    def test_pow2_mul_is_shift(self, coster):
        assert coster.cost(Mul(Var("i"), IntImm(16))).slots == 1

    def test_general_int_mul_multicycle(self, coster):
        cost = coster.cost(Mul(Var("i"), Var("j")))
        assert cost.slots == DEFAULT_CONFIG.int_mul_cycles

    def test_wram_load_one_slot(self, coster):
        w = Buffer("W", (8,), "float32", scope="wram")
        cost = coster.cost(BufferLoad(w, [Var("i")]))
        assert cost.slots >= 1
        assert cost.dma_calls == 0

    def test_mram_load_counts_as_small_dma(self, coster):
        m = Buffer("M", (8,), "float32", scope="mram")
        cost = coster.cost(BufferLoad(m, [Var("i")]))
        assert cost.dma_calls == 1
        assert cost.dma_bytes == DEFAULT_CONFIG.dma_align_bytes

    def test_multidim_addressing_extra_slot(self, coster):
        w = Buffer("W", (4, 8), "float32", scope="wram")
        c1 = coster.cost(BufferLoad(w, [Var("i"), Var("j")]))
        w1 = Buffer("W1", (8,), "float32", scope="wram")
        c2 = coster.cost(BufferLoad(w1, [Var("i")]))
        assert c1.slots > c2.slots

    def test_memoization_by_identity(self, coster):
        e = Add(Var("i"), IntImm(1))
        assert coster.cost(e) is coster.cost(e)

    def test_compound_expression(self, coster):
        w = Buffer("W", (8,), "float32", scope="wram")
        e = Add(
            Mul(BufferLoad(w, [Var("i")]), BufferLoad(w, [Var("j")])),
            FloatImm(0.0),
        )
        cost = coster.cost(e)
        assert cost.loads == 2
        assert cost.compute_ops == 2

    def test_min_and_boundary_condition_costed(self, coster):
        i = Var("i")
        assert coster.cost(Min(i, IntImm(3))).slots == 2
        assert coster.cost(i < 1).slots == 1
        assert coster.cost(And(i < 1, i >= 0)).slots == 3


class TestCounts:
    def test_add_and_scale(self):
        a = Counts(slots=2, branches=1, dma_calls=1, dma_bytes=64)
        b = Counts(slots=3)
        c = (a + b).scaled(2)
        assert c.slots == 10
        assert c.branches == 2
        assert c.dma_bytes == 128

    def test_iadd(self):
        a = Counts(slots=1)
        a += Counts(slots=2, barriers=1)
        assert a.slots == 3 and a.barriers == 1


class TestConfig:
    def test_defaults_match_paper_hardware(self):
        cfg = UpmemConfig()
        assert cfg.n_dpus == 2048
        assert cfg.max_tasklets == 24
        assert cfg.wram_bytes == 64 * 1024
        assert cfg.iram_instructions == 4096
        assert cfg.mram_bytes == 64 * 1024 * 1024
        assert cfg.dpu_frequency_hz == 350e6

    def test_with_override_is_functional(self):
        cfg = UpmemConfig()
        small = cfg.with_(n_ranks=1)
        assert small.n_dpus == 64
        assert cfg.n_ranks == 32  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            UpmemConfig().n_ranks = 5

    def test_cycle_time(self):
        assert UpmemConfig().cycle_time_s == pytest.approx(1 / 350e6)
