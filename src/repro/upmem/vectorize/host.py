"""Host statement programs, and the cache that keeps one compiled plan
per module and slot.

A host program runs the ``host_pre`` / ``host_post`` statements of a
module on its host tensors with the same op tree as a kernel: every
buffer is shared (nothing is batched), and a loop whose iterations write
disjoint slices runs its iterations as lanes (:func:`_lane_safe`).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np

from ...lowering import LoweredModule
from ...tir import (
    Buffer, BufferStore, For, IfThenElse, IntImm, PrimExpr, SeqStmt, Stmt,
    Var, collect_loads, iter_stmts,
)
from .expr import _Ctx
from .ops import _StmtCompiler
from .plan import KernelPlan, _frozen


def _lane_safe(body: Stmt, var: Var) -> bool:
    """True if batching the loop's iterations as lanes is write-safe.

    Every store must index its buffer by ``var`` directly in some
    dimension (iterations write disjoint slices), and any load of a
    stored buffer must read the same ``var`` slice (no cross-iteration
    dependence).
    """
    stores: Dict[Buffer, set] = {}
    for s in iter_stmts(body):
        if isinstance(s, (SeqStmt, For, IfThenElse)):
            continue
        if isinstance(s, BufferStore):
            pos = {d for d, i in enumerate(s.indices) if i is var}
            if not pos:
                return False
            stores.setdefault(s.buffer, set()).update(pos)
        else:
            return False
    exprs: List[PrimExpr] = []
    for s in iter_stmts(body):
        if isinstance(s, For):
            exprs.append(s.extent)
        elif isinstance(s, IfThenElse):
            exprs.append(s.condition)
        elif isinstance(s, BufferStore):
            exprs.append(s.value)
            exprs.extend(s.indices)
    for e in exprs:
        for ld in collect_loads(e):
            if ld.buffer in stores:
                ok = any(
                    d < len(ld.indices) and ld.indices[d] is var
                    for d in stores[ld.buffer]
                )
                if not ok:
                    return False
    return True


class _HostPlan:
    """One host statement, compiled as a loop over lanes.

    A loop of constant extent whose iterations write disjoint slices
    (:func:`_lane_safe`) runs them as lanes, one per iteration; any other
    statement is a lane loop of one lane with no lane variable.  Host
    buffers are shared: nothing is batched.
    """

    batched: frozenset = frozenset()

    def __init__(self, stmt: Stmt) -> None:
        self.lanes = _frozen(np.arange(1))
        self.lane_vals: Dict[Var, np.ndarray] = {}
        if (
            isinstance(stmt, For)
            and isinstance(stmt.extent, IntImm)
            and stmt.extent.value > 0
            and _lane_safe(stmt.body, stmt.var)
        ):
            self.lanes = _frozen(np.arange(stmt.extent.value, dtype=np.int64))
            self.lane_vals[stmt.var] = self.lanes
            stmt = stmt.body
        self.lane_vars = set(self.lane_vals)
        self.op = _StmtCompiler(self).compile(stmt)

    def run(self, arrays: Dict[Buffer, np.ndarray]) -> None:
        L = len(self.lanes)
        self.op.run(_Ctx(arrays, self.lane_vals, L, self.lanes))


class HostProgram:
    """Compiled form of a list of host statements (pre or post)."""

    def __init__(self, stmts: Sequence[Stmt]):
        self.plans = [_HostPlan(s) for s in stmts]

    def run(self, arrays: Dict[Buffer, np.ndarray]) -> None:
        for plan in self.plans:
            plan.run(arrays)


_PLAN_LOCK = threading.Lock()
#: key -> (weakref(module), {"kernel": ..., "host_pre": ..., "host_post": ...})
_PLANS: "OrderedDict" = OrderedDict()
_PLAN_CACHE_SIZE = 256


def _cached_plan(module: LoweredModule, slot: str, builder):
    """Per-module plan cache.

    Keyed by the pipeline artifact content hash (``module.plan_key``,
    stamped by :class:`repro.pipeline.ArtifactCache`) when available, by
    object identity otherwise.  Compiled plans capture :class:`Buffer`
    object identity, so an entry is only reused for the *same* module
    object — the content key's job is to give cache-shared modules a
    stable slot that survives executor churn.
    """
    key = getattr(module, "plan_key", None) or id(module)
    with _PLAN_LOCK:
        entry = _PLANS.get(key)
        if entry is not None and entry[0]() is module:
            plan = entry[1].get(slot)
            if plan is not None:
                _PLANS.move_to_end(key)
                return plan
    plan = builder(module)
    with _PLAN_LOCK:
        entry = _PLANS.get(key)
        if entry is None or entry[0]() is not module:
            entry = (weakref.ref(module), {})
            _PLANS[key] = entry
            while len(_PLANS) > _PLAN_CACHE_SIZE:
                _PLANS.popitem(last=False)
        # Threads that first touch a module together each build a plan;
        # the first to get here stores its own, and all of them return it.
        return entry[1].setdefault(slot, plan)


def plan_for(module: LoweredModule) -> KernelPlan:
    """The compiled (cached) kernel plan for a lowered module."""
    return _cached_plan(module, "kernel", KernelPlan)


def host_program_for(module: LoweredModule, which: str) -> HostProgram:
    """The compiled (cached) host ``"pre"`` or ``"post"`` program."""
    stmts = module.host_pre if which == "pre" else module.host_post
    return _cached_plan(
        module, "host_" + which, lambda m: HostProgram(stmts)
    )
