"""Analytical timing walker over lowered kernel TIR.

Counts dynamic instructions, branches and DMA traffic *exactly* without
per-element interpretation: loop bodies whose cost is provably uniform
over an iteration range are costed once and multiplied; ranges where a
boundary condition flips are split by bisection.  The same machinery
groups DPUs, so interior DPUs are costed once for the whole grid and only
boundary DPUs are enumerated.

The cost of a statement depends on the ranges of the variables its
conditions and loop extents read — its *control variables* — and on
nothing else.  One analyzer remembers each statement's cost per setting
of those ranges, so the halves of a bisected loop and the DPU groups of a
bisected grid re-walk only what the split variable actually controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..tir import (
    Barrier,
    BufferStore,
    DmaCopy,
    For,
    ForKind,
    IfThenElse,
    Interval,
    IntImm,
    PrimExpr,
    SeqStmt,
    Stmt,
    Var,
    eval_interval,
    free_vars,
    iter_stmts,
)
from ..tir.visitor import StmtMutator
from .config import UpmemConfig
from .isa import Counts, ExprCoster

__all__ = ["KernelAnalyzer", "DpuCost", "Mixed", "grouped"]


class Mixed(Exception):
    """A condition/extent does not resolve uniformly over current ranges."""

    def __init__(self, variables: Set[Var]) -> None:
        super().__init__()
        self.variables = variables

    def __str__(self) -> str:
        return f"mixed over {sorted(v.name for v in self.variables)}"


@dataclass
class DpuCost:
    """Per-DPU dynamic cost: per-tasklet slot totals plus shared counters."""

    total: Counts = field(default_factory=Counts)
    max_tasklet_slots: float = 0.0
    max_tasklet_branches: float = 0.0
    n_tasklets: int = 1

    def merge_serial(self, counts: Counts) -> None:
        """Work executed by a single tasklet (outside the tasklet loop)."""
        self.total += counts
        self.max_tasklet_slots += counts.slots
        self.max_tasklet_branches += counts.branches


Env = Dict[Var, Interval]


class KernelAnalyzer:
    """Computes :class:`DpuCost` for one DPU (given grid-var intervals)."""

    def __init__(self, config: UpmemConfig) -> None:
        self.config = config
        self.coster = ExprCoster(config)
        # Per-analyzer memos, keyed by statement identity; they go away
        # with the analyzer (one profile, one feature extraction).
        self._sections: Dict[Stmt, Stmt] = {}
        self._control: Dict[Stmt, Tuple[Var, ...]] = {}
        self._walked: Dict[tuple, Counts] = {}

    # -- public ------------------------------------------------------------
    def dpu_cost(self, kernel: Stmt, env: Env) -> DpuCost:
        cost = DpuCost()
        self._walk_sections(kernel, env, cost)
        return cost

    # -- control variables --------------------------------------------------
    def _control_vars(self, stmt: Stmt) -> Tuple[Var, ...]:
        """Variables whose ranges can change what walking ``stmt`` counts:
        those read by its conditions and loop extents, minus the loop
        variables it binds itself."""
        known = self._control.get(stmt)
        if known is None:
            found: Set[Var] = set()
            if isinstance(stmt, For):
                found.update(self._control_vars(stmt.body))
                found.discard(stmt.var)
                found.update(free_vars(stmt.extent))
            elif isinstance(stmt, IfThenElse):
                found.update(free_vars(stmt.condition))
                found.update(self._control_vars(stmt.then_case))
            elif isinstance(stmt, SeqStmt):
                for s in stmt.stmts:
                    found.update(self._control_vars(s))
            known = self._control[stmt] = tuple(found)
        return known

    # -- section walk (handles tasklet loops) -----------------------------------
    def _walk_sections(self, stmt: Stmt, env: Env, cost: DpuCost) -> None:
        if isinstance(stmt, SeqStmt):
            for s in stmt.stmts:
                self._walk_sections(s, env, cost)
            return
        thread = _find_thread_loop(stmt)
        if thread is not None:
            # Every tasklet executes the section with its own thread id
            # (on hardware the section is replicated per tasklet with the
            # body guarded by `me()`); strip the binding loop and group
            # over the thread variable, wherever the loop is nested.
            extent = self._const_extent(thread.extent, env)
            cost.n_tasklets = max(cost.n_tasklets, extent)
            body = self._sections.get(stmt)
            if body is None:
                body = self._sections[stmt] = _strip_thread_loop(stmt)
            groups = grouped(
                [(thread.var, extent)],
                env,
                lambda e: self._walk(body, e),
            )
            for count, counts in groups:
                cost.total += counts.scaled(count)
                cost.max_tasklet_slots = max(cost.max_tasklet_slots, counts.slots)
                cost.max_tasklet_branches = max(
                    cost.max_tasklet_branches, counts.branches
                )
            return
        # No tasklet loop: executed once (by one tasklet, others waiting).
        cost.merge_serial(self._walk(stmt, env))

    # -- recursive statement walk ------------------------------------------------
    def _walk(self, stmt: Stmt, env: Env) -> Counts:
        """Cost of ``stmt`` under ``env`` (shared: callers must not mutate
        it).  Loops and branches — what a bisection walks again — are
        remembered per setting of their control variables."""
        if isinstance(stmt, (For, IfThenElse)):
            key: tuple = (stmt,)
            for var in self._control_vars(stmt):
                rng = env.get(var)
                key += (None if rng is None else (rng.lo, rng.hi),)
            counts = self._walked.get(key)
            if counts is None:
                walk = self._walk_for if isinstance(stmt, For) else self._walk_if
                counts = self._walked[key] = walk(stmt, env)
            return counts
        if isinstance(stmt, SeqStmt):
            total = Counts()
            for s in stmt.stmts:
                total += self._walk(s, env)
            return total
        if isinstance(stmt, BufferStore):
            c = Counts()
            c += self.coster.cost(stmt.value)
            for i in stmt.indices:
                c += self.coster.cost(i)
            c.stores += 1
            if stmt.buffer.scope == "mram":
                c.dma_calls += 1
                c.dma_bytes += max(
                    stmt.buffer.elem_bytes, self.config.dma_align_bytes
                )
                c.slots += 2
            else:
                c.slots += 1
            c.slots += max(0, len(stmt.indices) - 1)
            return c
        if isinstance(stmt, DmaCopy):
            c = Counts()
            for i in list(stmt.dst_base) + list(stmt.src_base):
                c += self.coster.cost(i)
            c.dma_calls += 1
            c.dma_bytes += max(stmt.nbytes, self.config.dma_align_bytes)
            c.slots += 4  # compute addresses + issue the DMA instruction
            return c
        if isinstance(stmt, Barrier):
            return Counts(barriers=1.0)
        raise TypeError(f"cannot analyze {type(stmt).__name__}")

    def _walk_for(self, stmt: For, env: Env) -> Counts:
        extent = self._maybe_const_extent(stmt.extent, env)
        if extent is None:
            raise Mixed(self._range_vars(stmt.extent, env))
        if extent <= 0:
            return Counts()

        def body_at(lo: int, hi: int) -> Counts:
            saved = env.get(stmt.var)
            env[stmt.var] = Interval(lo, hi)
            try:
                return self._walk(stmt.body, env)
            finally:
                if saved is None:
                    env.pop(stmt.var, None)
                else:
                    env[stmt.var] = saved

        def bisect(lo: int, hi: int) -> Counts:
            try:
                return body_at(lo, hi).scaled(hi - lo + 1)
            except Mixed as m:
                if stmt.var not in m.variables or lo == hi:
                    raise
            mid = (lo + hi) // 2
            return bisect(lo, mid) + bisect(mid + 1, hi)

        total = bisect(0, extent - 1)
        if stmt.kind is not ForKind.UNROLLED:
            # Loop maintenance: induction update + bound check + back edge.
            overhead = Counts(slots=2.0 * extent, branches=1.0 * extent)
            total += overhead
        return total

    def _walk_if(self, stmt: IfThenElse, env: Env) -> Counts:
        c = Counts()
        c += self.coster.cost(stmt.condition)
        c.branches += 1
        truth = eval_interval(stmt.condition, env)
        if truth is None or not truth.is_point:
            mixed = self._range_vars(stmt.condition, env)
            if mixed:
                raise Mixed(mixed)
            # All vars are points yet interval analysis failed: be
            # conservative and assume the branch is taken.
            c += self._walk(stmt.then_case, env)
            return c
        if truth.lo:
            c += self._walk(stmt.then_case, env)
        return c

    # -- helpers --------------------------------------------------------------
    def _range_vars(self, expr: PrimExpr, env: Env) -> Set[Var]:
        return {
            v
            for v in free_vars(expr)
            if v in env and not env[v].is_point
        }

    def _maybe_const_extent(self, extent: PrimExpr, env: Env) -> Optional[int]:
        if isinstance(extent, IntImm):
            return extent.value
        rng = eval_interval(extent, env)
        if rng is not None and rng.is_point:
            return rng.lo
        return None

    def _const_extent(self, extent: PrimExpr, env: Env) -> int:
        value = self._maybe_const_extent(extent, env)
        if value is None:
            raise Mixed(self._range_vars(extent, env))
        return value


def _find_thread_loop(stmt: Stmt) -> Optional[For]:
    """Locate the tasklet-binding loop within a kernel section."""
    for s in iter_stmts(stmt):
        if (
            isinstance(s, For)
            and s.kind is ForKind.THREAD_BINDING
            and s.thread_tag == "threadIdx.x"
        ):
            return s
    return None


class _StripThreadLoop(StmtMutator):
    def visit_For(self, node: For) -> Optional[Stmt]:
        if node.kind is ForKind.THREAD_BINDING and node.thread_tag == "threadIdx.x":
            return self.visit_stmt(node.body)
        return self.generic_visit_stmt(node)


def _strip_thread_loop(stmt: Stmt) -> Stmt:
    """Replace the tasklet loop by its body (thread var becomes free)."""
    result = _StripThreadLoop().visit_stmt(stmt)
    assert result is not None
    return result


def grouped(
    variables: Sequence[Tuple[Var, int]],
    base_env: Env,
    fn: Callable[[Env], object],
) -> List[Tuple[int, object]]:
    """Evaluate ``fn`` over the product domain of ``variables`` in uniform
    groups.

    Tries the full ranges first; on :class:`Mixed`, bisects the offending
    variable.  Returns ``(group_size, result)`` pairs covering the domain.
    """

    def rec(env: Env, sizes: Dict[Var, int]) -> List[Tuple[int, object]]:
        try:
            count = 1
            for n in sizes.values():
                count *= n
            return [(count, fn(env))]
        except Mixed as m:
            split_var = None
            for v, _ in variables:
                if v in m.variables and sizes.get(v, 1) > 1:
                    split_var = v
                    break
            if split_var is None:
                raise
        iv = env[split_var]
        mid = (iv.lo + iv.hi) // 2
        results = []
        for lo, hi in ((iv.lo, mid), (mid + 1, iv.hi)):
            child = dict(env)
            child[split_var] = Interval(lo, hi)
            child_sizes = dict(sizes)
            child_sizes[split_var] = hi - lo + 1
            results.extend(rec(child, child_sizes))
        return results

    env = dict(base_env)
    sizes: Dict[Var, int] = {}
    for var, extent in variables:
        env[var] = Interval(0, extent - 1)
        sizes[var] = extent
    return rec(env, sizes)
