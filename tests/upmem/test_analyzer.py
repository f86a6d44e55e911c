"""The timing walker's exact counting vs. brute-force enumeration.

The analyzer claims to count dynamic branches, DMA calls/bytes and issue
slots exactly without enumerating every iteration; these tests enumerate
for real (a reference counter) and compare.
"""

import pytest

import repro
from repro.tir import (
    Barrier,
    BufferStore,
    DmaCopy,
    For,
    IfThenElse,
    Interval,
    SeqStmt,
    Stmt,
    Var,
)
from repro.upmem.analyzer import KernelAnalyzer, grouped
from repro.upmem.config import UpmemConfig
from repro.upmem.isa import Counts, ExprCoster

from ..conftest import make_mtv_schedule

CFG = UpmemConfig()


class ReferenceCounter:
    """Brute-force dynamic counter: enumerates every iteration."""

    def __init__(self, config: UpmemConfig) -> None:
        self.coster = ExprCoster(config)
        self.config = config

    def count(self, stmt: Stmt, env: dict) -> Counts:
        from repro.upmem.interp import Interpreter

        interp = Interpreter({})
        total = Counts()

        def run(s: Stmt, e: dict) -> None:
            if isinstance(s, SeqStmt):
                for sub in s.stmts:
                    run(sub, e)
            elif isinstance(s, For):
                extent = int(interp.eval(s.extent, e))
                from repro.tir import ForKind
                for value in range(extent):
                    e[s.var] = value
                    run(s.body, e)
                e.pop(s.var, None)
                if s.kind is not ForKind.UNROLLED:
                    total.slots += 2.0 * extent
                    total.branches += extent
            elif isinstance(s, IfThenElse):
                c = self.coster.cost(s.condition)
                total.slots += c.slots
                total.branches += 1
                if interp.eval(s.condition, e):
                    run(s.then_case, e)
            elif isinstance(s, BufferStore):
                c = self.coster.cost(s.value)
                total.slots += c.slots
                total.dma_calls += c.dma_calls
                total.dma_bytes += c.dma_bytes
                for i in s.indices:
                    ci = self.coster.cost(i)
                    total.slots += ci.slots
                    total.dma_calls += ci.dma_calls
                    total.dma_bytes += ci.dma_bytes
                if s.buffer.scope == "mram":
                    total.dma_calls += 1
                    total.dma_bytes += max(
                        s.buffer.elem_bytes, self.config.dma_align_bytes
                    )
                    total.slots += 2
                else:
                    total.slots += 1
                total.slots += max(0, len(s.indices) - 1)
            elif isinstance(s, DmaCopy):
                for i in list(s.dst_base) + list(s.src_base):
                    total.slots += self.coster.cost(i).slots
                total.dma_calls += 1
                total.dma_bytes += max(s.nbytes, self.config.dma_align_bytes)
                total.slots += 4
            elif isinstance(s, Barrier):
                total.barriers += 1

        run(stmt, dict(env))
        return total


def assert_counts_match(kernel, grid_env):
    """Compare analyzer bisection counting vs full enumeration.

    Both sides use the same execution semantics: each tasklet executes its
    kernel section with its own thread id (the binding loop is stripped
    and enumerated), matching how ``main()`` replicates per tasklet on the
    DPU.
    """
    from repro.upmem.analyzer import _find_thread_loop, _strip_thread_loop

    analyzer = KernelAnalyzer(CFG)
    cost = analyzer.dpu_cost(kernel, grid_env)
    ref = Counts()
    counter = ReferenceCounter(CFG)
    env0 = {v: iv.lo for v, iv in grid_env.items()}
    sections = kernel.stmts if isinstance(kernel, SeqStmt) else [kernel]
    for section in sections:
        thread = _find_thread_loop(section)
        if thread is None:
            part = counter.count(section, env0)
            ref += part
        else:
            stripped = _strip_thread_loop(section)
            extent = thread.extent.value
            for t in range(extent):
                env_t = dict(env0)
                env_t[thread.var] = t
                ref += counter.count(stripped, env_t)
    assert cost.total.branches == pytest.approx(ref.branches)
    assert cost.total.dma_calls == pytest.approx(ref.dma_calls)
    assert cost.total.dma_bytes == pytest.approx(ref.dma_bytes)
    assert cost.total.slots == pytest.approx(ref.slots)
    return cost


def module_for(m, k, level="O0", **kwargs):
    sch = make_mtv_schedule(m, k, **kwargs)
    return repro.compile(sch, opt_level=level).lowered


class TestExactCounting:
    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3"])
    def test_aligned_mtv(self, level):
        mod = module_for(64, 32, level)
        env = {mod.grid[0].var: Interval.point(0)}
        assert_counts_match(mod.kernel, env)

    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3"])
    def test_misaligned_interior_dpu(self, level):
        mod = module_for(37, 50, level)
        env = {mod.grid[0].var: Interval.point(0)}
        assert_counts_match(mod.kernel, env)

    @pytest.mark.parametrize("level", ["O0", "O2", "O3"])
    def test_misaligned_boundary_dpu(self, level):
        mod = module_for(37, 50, level)
        last = mod.grid[0].extent - 1
        env = {mod.grid[0].var: Interval.point(last)}
        assert_counts_match(mod.kernel, env)

    def test_rfactor_two_grid_dims(self):
        mod = module_for(37, 50, "O3", k_dpus=2)
        env = {d.var: Interval.point(d.extent - 1) for d in mod.grid}
        assert_counts_match(mod.kernel, env)

    def test_boundary_dpu_costlier_or_equal_interior_work(self):
        mod = module_for(37, 50, "O2")
        analyzer = KernelAnalyzer(CFG)
        interior = analyzer.dpu_cost(
            mod.kernel, {mod.grid[0].var: Interval.point(0)}
        )
        boundary = analyzer.dpu_cost(
            mod.kernel,
            {mod.grid[0].var: Interval.point(mod.grid[0].extent - 1)},
        )
        # The last DPU owns the partial tile: strictly fewer compute slots.
        assert boundary.total.slots <= interior.total.slots


class TestGrouping:
    def test_uniform_grid_single_group(self):
        mod = module_for(64, 32)  # perfectly aligned: all DPUs identical
        analyzer = KernelAnalyzer(CFG)
        groups = grouped(
            [(mod.grid[0].var, mod.grid[0].extent)],
            {},
            lambda env: analyzer.dpu_cost(mod.kernel, env),
        )
        assert len(groups) == 1
        assert groups[0][0] == mod.grid[0].extent

    def test_boundary_grid_splits(self):
        mod = module_for(37, 32, "O0")
        analyzer = KernelAnalyzer(CFG)
        groups = grouped(
            [(mod.grid[0].var, mod.grid[0].extent)],
            {},
            lambda env: analyzer.dpu_cost(mod.kernel, env),
        )
        assert len(groups) >= 2
        assert sum(n for n, _ in groups) == mod.grid[0].extent

    def test_group_costs_match_pointwise(self):
        mod = module_for(37, 50, "O0")
        analyzer = KernelAnalyzer(CFG)
        var, extent = mod.grid[0].var, mod.grid[0].extent
        groups = grouped(
            [(var, extent)], {}, lambda env: analyzer.dpu_cost(mod.kernel, env)
        )
        # Expand groups and compare against per-DPU evaluation.
        flat = []
        for count, cost in groups:
            flat.extend([cost.total.slots] * count)
        pointwise = [
            analyzer.dpu_cost(mod.kernel, {var: Interval.point(i)}).total.slots
            for i in range(extent)
        ]
        assert flat == pytest.approx(pointwise)

    def test_tasklet_imbalance_tracked(self):
        mod = module_for(37, 32, "O0", n_tasklets=2)
        analyzer = KernelAnalyzer(CFG)
        last = mod.grid[0].extent - 1
        cost = analyzer.dpu_cost(
            mod.kernel, {mod.grid[0].var: Interval.point(last)}
        )
        # max-per-tasklet can exceed the mean when the tail is uneven
        assert cost.max_tasklet_slots * cost.n_tasklets >= cost.total.slots
