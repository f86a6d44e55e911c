"""Host statement programs, and the cache that keeps one compiled plan
per module and slot.

A host program runs the ``host_pre`` / ``host_post`` statements of a
module on its host tensors with the same op tree as a kernel: every
buffer is shared (nothing is batched), and a nest of loops whose
iterations write disjoint slices runs its iterations as lanes
(:func:`_lane_safe`).

Lanes and lane slices
---------------------
A statement that opens with a perfect nest of constant-extent loops —
``for i in 128:`` of an rfactor fold, or ``for o in 4 (parallel): for i
in 32:`` once ``host_threads`` splits it — runs the longest lane-safe
prefix of that nest as *one* lane axis, iterations in the scalar path's
(row-major) order: lane ``l`` binds each loop variable to its digit of
``l``.  Unlike a kernel's grid coordinates, which each chunk brings,
these lane values are the program's, known when the plan is built.  So
an index that reads only the nest's variables is evaluated then, too,
and where its values are an arithmetic progression inside the buffer
(``i``, ``o * 32 + i``) it is a *lane slice*: a basic slice, proved
once, like ``expr._axis_slice`` for a vectorised loop's variable.  A load
through one is a view — ``C.rf[rk, o * 32 + i]`` in a fold is a
``(lanes, k)`` view of the partial sums — and a store is a ``copyto``
into one, with no index array, no gather and no per-element test.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Sequence

import numpy as np

from ...lowering import LoweredModule
from ...tir import (
    Buffer, BufferStore, For, IfThenElse, IntImm, PrimExpr, SeqStmt, Stmt,
    collect_loads, iter_stmts,
)
from .expr import _Ctx, _ExprCompiler
from .ops import _StmtCompiler
from .plan import KernelPlan, _frozen


def _injective(keys: List[np.ndarray]) -> bool:
    """True if no two lanes share the tuple of their values in ``keys``
    (one ``(L,)`` array per index)."""
    if not keys:
        return False
    rows = np.stack(keys, axis=1)
    return len(np.unique(rows, axis=0)) == len(rows)


def _lane_safe(body: Stmt, ec: _ExprCompiler) -> bool:
    """True if batching the loop nest's iterations as lanes is write-safe.

    Every store must index its buffer, in some dimensions, by values of
    the nest's variables alone that no two lanes share (iterations write
    disjoint slices); every store of a buffer must agree in those
    dimensions, and any load of a stored buffer must read, in
    dimensions among them that still tell the lanes apart, the values
    its own lane writes (no cross-iteration dependence).  The values are
    the lanes' own (``ec.lane_values``), computed when the plan is built.
    """
    stores: Dict[Buffer, List[list]] = {}
    for s in iter_stmts(body):
        if isinstance(s, (SeqStmt, For, IfThenElse)):
            continue
        if not isinstance(s, BufferStore):
            return False
        stores.setdefault(s.buffer, []).append(
            [ec.lane_values(i) for i in s.indices]
        )
    keys: Dict[Buffer, Dict[int, np.ndarray]] = {}
    for buf, rows in stores.items():
        first = rows[0]
        key = {
            d: v
            for d, v in enumerate(first)
            if v is not None
            and all(r[d] is not None and np.array_equal(r[d], v) for r in rows)
        }
        if not _injective(list(key.values())):
            return False
        keys[buf] = key
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
            key = keys.get(ld.buffer)
            if key is None:
                continue
            own = []
            for d, v in key.items():
                got = ec.lane_values(ld.indices[d])
                if got is not None and np.array_equal(got, v):
                    own.append(v)
            if not _injective(own):
                return False
    return True


def _perfect_nest(stmt: Stmt) -> List[For]:
    """The loops of constant, positive extent ``stmt`` opens with, each
    the whole body of the one before, outermost first."""
    nest = []
    while (
        isinstance(stmt, For)
        and isinstance(stmt.extent, IntImm)
        and stmt.extent.value > 0
    ):
        nest.append(stmt)
        stmt = stmt.body
    return nest


class _HostPlan:
    """One host statement, compiled as a loop over lanes.

    The longest prefix of the statement's loop nest (:func:`_perfect_nest`)
    whose iterations write disjoint slices (:func:`_lane_safe`) runs as
    one lane axis, one lane per iteration of the prefix; any other
    statement is a lane loop of one lane with no lane variable.  Host
    buffers are shared: nothing is batched.
    """

    batched: frozenset = frozenset()

    def __init__(self, stmt: Stmt) -> None:
        nest = _perfect_nest(stmt)
        for depth in range(len(nest), 0, -1):
            self._bind(nest[:depth])
            if _lane_safe(nest[depth - 1].body, _ExprCompiler(self)):
                stmt = nest[depth - 1].body
                break
        else:
            self._bind([])
        self.op = _StmtCompiler(self).compile(stmt)

    def _bind(self, loops: Sequence[For]) -> None:
        """Make ``loops`` (a nest prefix, outermost first) the lane axis."""
        extents = [loop.extent.value for loop in loops]
        self.lanes = _frozen(np.arange(math.prod(extents), dtype=np.int64))
        self.lane_vals = {}
        inner = len(self.lanes)
        for loop, extent in zip(loops, extents):
            inner //= extent
            self.lane_vals[loop.var] = _frozen((self.lanes // inner) % extent)
        self.lane_vars = set(self.lane_vals)
        #: The lanes as the op tree sees them: fixed for every call.
        self.fixed_lanes = _Ctx({}, self.lane_vals, len(self.lanes), self.lanes)

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
