"""TIR -> NumPy compiler: vectorized functional execution of lowered modules.

Compiles a :class:`LoweredModule`'s kernel and host statements *once* into
a tree of closure-based ops that execute all DPU grid points of a chunk as
one batched "lane" axis — one lane per grid point — instead of re-walking
the AST per point.  Inner ``For`` loops over affine buffer indices are
further vectorized across the loop axis (a strict left fold for
reductions, injective scatter for maps), and ``DmaCopy`` becomes a
flat slice copy over all lanes at once — or nothing at all, when it only
stages what the next scan reads (see "Reading through WRAM staging").

It compiles every node kind of :mod:`repro.tir`, which holds exactly what
the lowering emits.  Statements: ``SeqStmt``, ``For``, ``IfThenElse``
(the §5.3 boundary checks), ``BufferStore``, ``DmaCopy`` and ``Barrier``
(a no-op: tasklets run serially).  Expressions: immediates, variables,
``+ - * // %``, ``min``/``max``, comparisons, ``and`` and
``BufferLoad``.  What no lowering emits — a kernel that stores to a host
tensor, a DMA to or from one — raises :class:`VectorizeError` when the
plan is built, and its statement falls back to the scalar ``Interpreter``
run lane by lane (:class:`_FallbackOp`; identical by construction).

The compiled program is **bit-for-bit identical** to the scalar
:class:`~repro.upmem.interp.Interpreter` reference semantics:

* float arithmetic batches elementwise ops whose operand/result dtypes
  match the scalar path exactly (NEP 50 makes ``np.float32`` scalars and
  float32 arrays behave identically against Python scalars);
* reductions are the same left fold as the scalar loop, vectorised
  across lanes (:func:`_fold`): the scan buffer is copied transposed, so
  the fold runs down its slow axis, where ``np.add.reduce`` adds one row
  of all lanes at a time, in order.  Along the fast axis NumPy sums
  pairwise, which would *not* be bit-identical (``np.sum``/``einsum``
  are avoided for that reason), so a one-lane fold, whose column *is*
  the fast axis, keeps the strictly sequential ``np.add.accumulate``.
  The reduce is told to start from -0.0, not its default +0.0, which
  would turn a lane of all -0.0 terms into +0.0; and its rows are padded
  to whole SIMD registers so NaN + NaN keeps the accumulator's NaN, as
  ``np.add.accumulate`` does (:data:`_FOLD_ALIGN` says where the scalar
  path's NaN differs).  ``TestAccumulateContract`` pins each of these
  NumPy behaviours.

Tasklet loops are executed as ordinary serial loops over batched lanes:
tasklets on one DPU may legally overlap in their padded DMA writebacks,
so their relative order is preserved exactly as the scalar interpreter
runs them.

Memory access: block where the range is proved, checked on the boundary
-----------------------------------------------------------------------
The paper's boundary optimisation (§5.3) keeps per-element checks only on
the DPUs at a tensor edge; the simulator treats its own accesses the same
way.  Every access has two forms.  *Block*: a basic slice or a strided
window of the array, whose range is proved by testing its two endpoints —
O(1) per access, O(lanes) per transfer, never O(elements) — and which
builds no index and no mask.  *Checked*: an index array, tested and
clamped element by element, with an :class:`InterpError` for a live
position outside the buffer.  Which form runs is decided in one place,
:func:`_clamp`, from what the lowering guarantees:

* **proved when the plan is built** (:meth:`_ExprCompiler.indices`): each
  index of a load, and of a vectorised loop's store, is *scalar* (the
  same element in every lane), *axis-affine* (``c * k + d`` in the
  vectorised loop variable ``k``, any constant ``c != 0`` — ``A_wram[0,
  k]`` inside a reduction) or *lane-dependent*.  An access with scalar
  indices and at most one axis-affine index is a slice of the buffer;
* **tested per chunk** (:func:`_axis_slice`): that the slice's two ends
  lie inside the buffer; and **per chunk shape** (:class:`_Placement`,
  kept — see "What a call recomputes"), for H2D/D2H tiles — whose
  origins are affine in the grid — which *lanes* hold a tile that fits
  its tensor (one ``(L,)`` comparison per dimension).  Those lanes move
  as one window gather or scatter;
* **still checked**: the lanes of a chunk whose tile crosses a tensor edge
  (the last DPUs of a trimmed ``va``), an access whose endpoint falls
  outside (so an out-of-range access raises exactly as the scalar path
  does instead of being clamped), and any lane-dependent index.

A block-form load is a *view* of its buffer.  Nothing holds one across a
store: a vectorised map never loads the buffer it stores to
(``_try_map``), a reduction's summand never loads its accumulator, and
NumPy buffers a single assignment whose source overlaps its destination.

**Reading through WRAM staging.**  Every kernel the sketches emit stages
its operands (``cache_read`` + ``compute_at``, then DMA-aware lowering)::

    for k.o in E:
        dma_copy(A_wram[0, 0] <- A_mram[i, k.o * c], n=c)
        dma_copy(B_wram[0] <- B_mram[k.o * c], n=c)
        for k.i in c:
            C_wram[0] = C_wram[0] + A_wram[0, k.i] * B_wram[k.i]

The virtual clock prices those bursts (``KernelAnalyzer``); the
functional simulator does not have to perform them, because a tile that
was just DMA'd *is* a window of its MRAM tile.  When the plan is built
(:func:`_normalise`) a burst ``DmaCopy(W <- M[b], n)`` is dropped and
every load ``W[.., j]`` becomes ``M[b[:-1].., b[-1] + j]`` if, and only
if, all of this is proved from the TIR (:class:`_StagingScan`):

1. *whole* — ``W`` is a WRAM buffer the burst overwrites entirely:
   ``dst_base`` all zero, ``n == W.size``, leading dimensions 1, the
   dtype of ``M``.  Nothing of an earlier ``W`` survives the burst;
2. *read-only source* — ``M`` is an H2D tile that no ``BufferStore`` and
   no ``DmaCopy`` in the kernel writes, so ``M[b + j]`` at the load is
   what the burst copied;
3. *never clipped* — for every value of the grid and enclosing loop
   variables (interval arithmetic over their extents) ``b[:-1]`` lies
   inside ``M``'s leading dimensions and ``b[-1] + n`` inside its last,
   so the DMA's clamp and its ``n_eff`` cut can never have applied; and
   each load's leading indices are 0 and its ``j`` lies in ``[0, n)``,
   so the load could not have raised either;
4. *one writer* — the burst is the only statement that writes ``W``, and
   ``W`` is never a DMA's source (a write-back reads the buffer whole);
5. *reads follow the burst* — every load of ``W`` sits after the burst
   inside the same ``SeqStmt``, none before it and none outside, and no
   loop in between rebinds a variable of ``b``.

Then ``for k.o in E: for k.i in c: T[i] = T[i] + f(k.o, k.i)`` folds into
``for k in E * c`` (:class:`_FoldBlocks`) when ``i`` uses neither
variable and they occur in ``f`` only inside load indices affine in both
with ``coeff(k.o) == c * coeff(k.i)`` — the same left fold in the same
order, so :func:`_fold` stays the only summation.  The folded
scan is cut into slabs that carry the accumulator (:class:`_VecReduceOp`,
:data:`_SCAN_BYTES`), so its workspace does not grow with the row.  There
is no option and no second path: a kernel that does not match compiles
exactly as lowered (the element-copy loops of O0-O2 are not bursts), and
the module keeps the lowered kernel — the scalar interpreter, hence
``REPRO_SIM_MODE=verify``, checks the rewrite against the original.

What a call recomputes
----------------------
ATiM fixes the host side of an offload when the program is generated:
which tile of which tensor each DPU receives, which DPUs sit on a tensor
edge.  So does the plan.  Lane ``i * G + g`` is grid point ``g``
whatever the item, so the pair *(grid point of a chunk's first lane,
lane count)* — its **chunk shape** — fixes every lane's coordinates,
and with them everything about a transfer except the bytes.  A plan
keeps one :class:`_Chunk` per chunk shape, built by the first call that
needs it (there is no second path: that call runs the same code and
leaves the entry behind):

* **resident** — the lane-variable arrays and ``arange(L)``; the lane
  range of each item the chunk spans; per transfer a :class:`_Placement`
  (origin, box, extent, partial mask) and what it has worked out: the
  window-view shape per tensor shape, the origin tuples of a lane range,
  where a range turns from whole to partial lanes, and the boundary
  lanes' element index / validity arrays.  Every resident array is
  read-only.  Also decided once, when the plan is built: an access index
  that is an ``IntImm`` inside its dimension (:func:`_immediates`) and a
  DMA base that is one;
* **per call** — the window *view* (``as_strided`` over this call's
  array, with this call's strides: a transposed or sliced input is a
  different view of the same shape), which neighbouring items bind the
  same array object, every buffer a chunk starts zeroed, the copies, and
  every test whose outcome can depend on data or on a loop variable:
  ``_clamp`` on lane- and loop-dependent indices, ``InterpError`` for a
  live position outside its buffer, ``prepare``'s shape / dtype /
  missing-input errors.  ``REPRO_MAX_WORKERS`` and ``REPRO_SIM_MODE``
  are read per call too — tests set them mid-process.

The table is bounded like the plan cache: :data:`_CHUNK_SHAPES` entries
per plan, oldest dropped first, and :data:`_ELEMENT_BYTES` of
boundary-lane indices across them (past that they are rebuilt per call,
as they always were); it is dropped with its plan.  A chunk whose
geometry raises while being built is not kept, so the error repeats on
every call.  Under ``REPRO_SIM_MODE=verify`` a chunk served from the
table is first rebuilt and compared field for field
(:meth:`KernelPlan.check_invariants`).

Weak numbers: the interpreter binds variables to Python ints, and a
Python number beside a NumPy value takes that value's dtype (NEP 50).
Batched, those numbers are int64/float64 *arrays*;
:meth:`_ExprCompiler.operands` casts one to the dtype its Python number
would take before it meets a buffer's dtype (:func:`_weak`, :func:`_meet`).
"""

from __future__ import annotations

import itertools
import operator
import threading
from collections import Counter, OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple
import weakref

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..lowering import LoweredModule, TransferSpec
from ..tir import (
    EQ,
    GE,
    GT,
    LE,
    LT,
    NE,
    Add,
    And,
    BinaryOp,
    Buffer,
    BufferLoad,
    BufferStore,
    CmpOp,
    Barrier,
    DmaCopy,
    ExprMutator,
    FloatImm,
    FloorDiv,
    FloorMod,
    For,
    IfThenElse,
    IntImm,
    Interval,
    Max,
    Min,
    Mul,
    PrimExpr,
    SeqStmt,
    Stmt,
    StmtMutator,
    StmtVisitor,
    Sub,
    Var,
    affine_coeffs,
    collect_loads,
    eval_interval,
    free_vars,
    is_const_int,
    iter_stmts,
    simplify,
    substitute,
)
from .interp import InterpError, Interpreter, _np_dtype

__all__ = [
    "VectorizeError",
    "KernelPlan",
    "HostProgram",
    "plan_for",
    "host_program_for",
]


class VectorizeError(Exception):
    """A construct outside the vectorizer's model (triggers fallback)."""


# Dependence flags of a compiled expression: which batch axes its runtime
# value varies along.  0 means a plain Python/numpy scalar.
LANE = 1  # varies per lane (grid point / host lane-loop iteration)
AXIS = 2  # varies along the vectorized inner-loop axis


def _contains_var(expr: PrimExpr, var: Var) -> bool:
    return var in free_vars(expr)


def _loads_buffer(expr: PrimExpr, buffer: Buffer) -> bool:
    return any(ld.buffer is buffer for ld in collect_loads(expr))


def _affine_coeff(expr: PrimExpr, var: Var) -> Optional[int]:
    """Constant integer coefficient of ``var`` in ``expr`` (None: non-affine)."""
    if expr is var:
        return 1
    if not _contains_var(expr, var):
        return 0
    if isinstance(expr, Add):
        a, b = _affine_coeff(expr.a, var), _affine_coeff(expr.b, var)
        return None if a is None or b is None else a + b
    if isinstance(expr, Sub):
        a, b = _affine_coeff(expr.a, var), _affine_coeff(expr.b, var)
        return None if a is None or b is None else a - b
    if isinstance(expr, Mul) and isinstance(expr.b, IntImm):
        # ``simplify`` puts a constant factor on the right.
        c = _affine_coeff(expr.a, var)
        return None if c is None else c * expr.b.value
    return None


def _same_index(a: PrimExpr, b: PrimExpr) -> bool:
    """Whether two indices are the same node or equal immediates: the
    lowering builds ``T[i] = T[i] + ...`` from one index list."""
    return a is b or (
        isinstance(a, IntImm) and isinstance(b, IntImm) and a.value == b.value
    )


def _weak(e: PrimExpr):
    """``0`` or ``0.0`` when the scalar interpreter's value of ``e`` is a
    Python int or float, ``None`` when it is a NumPy value.

    Under NEP 50 a Python number is *weak*: next to a NumPy value it
    takes that value's dtype (``np.float32(x) * 3`` is a float32).  The
    interpreter binds every variable to a Python int, so variables, the
    immediates, and arithmetic among them are weak; a buffer load has
    its buffer's dtype and a comparison is a bool.
    """
    if isinstance(e, (IntImm, Var)):
        return 0
    if isinstance(e, FloatImm):
        return 0.0
    if isinstance(e, BinaryOp) and not isinstance(e, (CmpOp, And)):
        ka, kb = _weak(e.a), _weak(e.b)
        return None if ka is None or kb is None else ka + kb
    return None


def _meet(weak, strong, kind):
    """``weak`` as the scalar path's operator sees it beside ``strong``.

    Batched, a weak value is an int64/float64 *array* — strongly typed,
    so ``float32 array * int64 array`` would compute in float64 and round
    a second time on the store.  Cast it to the dtype the Python number
    would take (``kind`` is :func:`_weak`'s zero).  A ``min``/``max``
    of a load and a number is typed by the value it returns, as in the
    interpreter: when that is the Python number, ``weak`` stays as it is.
    """
    dtype = getattr(strong, "dtype", None)
    if dtype is None:
        return weak
    return weak.astype(np.result_type(dtype, kind), copy=False)


class _Ctx:
    """Runtime state of one batched execution (one lane chunk)."""

    __slots__ = (
        "bufs",
        "env",
        "mask",
        "lanes",
        "lane_vals",
        "L",
        "axis_k",
        "vmask",
        "scratch",
    )

    def __init__(self, bufs, lane_vals, L, lanes):
        #: Buffer -> ndarray (batched arrays lead with L): every buffer
        #: the op tree touches is bound before it runs.
        self.bufs = bufs
        self.env: Dict[Var, int] = {}  # serial loop variables (scalars)
        self.mask = None  # (L,) bool of active lanes, or None == all
        self.lanes = lanes  # arange(L)
        self.lane_vals = lane_vals  # Var -> (L,) int64
        self.L = L
        self.axis_k = None  # arange(n) while inside a vectorized axis op
        self.vmask = None  # validity mask of axis positions, or None
        self.scratch: Dict[tuple, np.ndarray] = {}  # see workspace()

    def workspace(self, use: str, shape: tuple, dtype) -> np.ndarray:
        """An array an op may use until it returns, zero-filled when first
        made; the same one for every request of that use, shape and
        dtype in this chunk.  Two uses never share one, whatever their
        shapes."""
        key = (use, shape, dtype)
        w = self.scratch.get(key)
        if w is None:
            w = self.scratch[key] = np.zeros(shape, dtype)
        return w


def _clamp(i, dim: int):
    """``i`` limited to ``[0, dim)``, and which positions that moved.

    The one place a run-time index is tested, and the only clip in this
    module, so it is also where *block or checked* is decided:
    the second result is ``None`` when every position was already in
    range (``i`` comes back untouched, and the caller may use it as an
    unchecked block access), else the boolean mask of the positions that
    were pulled in, which the caller either excuses (padding, a masked
    lane) or reports.  Arrays cost two reductions, no temporaries.
    """
    if isinstance(i, np.ndarray):
        if i.size == 0 or (i.min() >= 0 and i.max() < dim):
            return i, None
        return np.clip(i, 0, dim - 1), (i < 0) | (i >= dim)
    c = min(max(int(i), 0), dim - 1)
    return c, (None if c == i else True)


def _checked(ctx: _Ctx, buffer: Buffer, d: int, i):
    """Index ``i`` of dimension ``d``, with an :class:`InterpError` if a
    position that is live — an active lane, a valid axis step — lies
    outside the buffer; dead positions come back clamped.

    Inside an axis op a lane-dependent value is ``(L, 1)`` and an
    axis-dependent one ``(n,)``, so the lane mask applies as a column.
    """
    c, moved = _clamp(i, buffer.shape[d])
    if moved is None:
        return c
    if moved is True:
        raise InterpError(f"index {int(i)} out of bounds for {buffer!r}")
    if ctx.mask is not None:
        moved = moved & (ctx.mask if ctx.axis_k is None else ctx.mask[:, None])
    if ctx.vmask is not None:
        moved = moved & ctx.vmask
    if moved.any():
        raise InterpError(f"index out of bounds for {buffer!r}")
    return c


def _immediates(buffer: Buffer, exprs: Sequence[PrimExpr]) -> List[bool]:
    """Per index of an access, whether it is an immediate inside its
    dimension: tested here, once, when the plan is built, so no call has
    to hand it to :func:`_checked`.  One outside its dimension is left
    to ``_checked``, which raises on every call as the scalar path does.
    """
    return [
        isinstance(e, IntImm) and 0 <= e.value < dim
        for e, dim in zip(exprs, buffer.shape)
    ]


def _axis_slice(i: np.ndarray, coeff: int, dim: int) -> Optional[slice]:
    """The basic slice equal to the axis index ``i = coeff * k + d``
    (``k = 0..n-1``, ``coeff != 0`` proved when the plan was built), or
    None if either end is outside ``[0, dim)`` — two scalar tests stand
    in for ``n`` (or ``L * n``) element tests."""
    first, last = int(i[0]), int(i[-1])
    lo, hi = (first, last) if coeff > 0 else (last, first)
    if lo < 0 or hi >= dim:
        return None
    stop = last + coeff
    return slice(first, stop if stop >= 0 else None, coeff)


class _ExprCompiler:
    """Compiles a PrimExpr to ``(fn(ctx) -> value, dep_flags)``.

    ``dep == 0`` subtrees evaluate with plain Python semantics — exactly
    the scalar interpreter.  Batched subtrees evaluate with numpy ufuncs
    whose elementwise results are bitwise identical to the scalar ops.
    In *axis mode* (``axis_var`` set), lane-dependent values carry shape
    ``(L, 1)`` and axis-dependent values ``(n,)`` so they broadcast to
    ``(L, n)``.
    """

    def __init__(self, plan, axis_var: Optional[Var] = None):
        self.plan = plan
        self.axis_var = axis_var

    def compile(self, e: PrimExpr) -> Tuple[Callable, int]:
        if isinstance(e, (IntImm, FloatImm)):
            v = e.value
            return (lambda ctx: v), 0
        if isinstance(e, Var):
            return self._var(e)
        if isinstance(e, (Min, Max)):
            return self._minmax(e)
        if isinstance(e, And):
            return self._and(e)
        if type(e) in _BINOPS:
            return self._binary(e)
        if isinstance(e, BufferLoad):
            return self._load(e)
        raise VectorizeError(f"cannot vectorize {type(e).__name__}")

    # -- leaves -------------------------------------------------------------
    def _var(self, e: Var) -> Tuple[Callable, int]:
        if self.axis_var is not None and e is self.axis_var:
            return (lambda ctx: ctx.axis_k), AXIS
        if e in self.plan.lane_vars:
            if self.axis_var is not None:
                return (lambda ctx: ctx.lane_vals[e][:, None]), LANE
            return (lambda ctx: ctx.lane_vals[e]), LANE

        def fn(ctx):
            try:
                return ctx.env[e]
            except KeyError:
                raise InterpError(f"unbound variable {e.name}") from None

        return fn, 0

    # -- arithmetic ---------------------------------------------------------
    def operands(self, ea: PrimExpr, eb: PrimExpr):
        """Compile the two operands of one operator: ``(a, b, met, dep)``.

        ``met`` is None when ``a(ctx)`` and ``b(ctx)`` promote as the
        scalar path's values do.  When exactly one of them is weak
        (:func:`_weak`) and batched, ``met(ctx)`` returns the pair with
        the weak array cast as :func:`_meet` says.
        """
        a, da = self.compile(ea)
        b, db = self.compile(eb)
        ka, kb = _weak(ea), _weak(eb)
        met = None
        if ka is None and kb is not None and db:

            def met(ctx):
                x = a(ctx)
                return x, _meet(b(ctx), x, kb)

        elif kb is None and ka is not None and da:

            def met(ctx):
                x, y = a(ctx), b(ctx)
                return _meet(x, y, ka), y

        return a, b, met, da | db

    def _binary(self, e) -> Tuple[Callable, int]:
        a, b, met, dep = self.operands(e.a, e.b)
        op = _BINOPS[type(e)]
        if met is not None:
            return (lambda ctx: op(*met(ctx))), dep
        return (lambda ctx: op(a(ctx), b(ctx))), dep

    def _minmax(self, e) -> Tuple[Callable, int]:
        a, b, met, dep = self.operands(e.a, e.b)
        if dep == 0:
            fn = min if isinstance(e, Min) else max
            return (lambda ctx: fn(a(ctx), b(ctx))), 0
        ufn = np.minimum if isinstance(e, Min) else np.maximum
        if met is not None:
            return (lambda ctx: ufn(*met(ctx))), dep
        return (lambda ctx: ufn(a(ctx), b(ctx))), dep

    def _and(self, e: And) -> Tuple[Callable, int]:
        a, da = self.compile(e.a)
        b, db = self.compile(e.b)
        if da | db == 0:
            return (lambda ctx: bool(a(ctx)) and bool(b(ctx))), 0
        return (lambda ctx: np.logical_and(a(ctx), b(ctx))), da | db

    # -- memory -------------------------------------------------------------
    def indices(self, exprs: Sequence[PrimExpr]):
        """Compile an access's index expressions and classify the access.

        Returns ``(fns, deps, axis_at, coeff)``.  Every index is one of
        *scalar* (``dep == 0``: the same element in every lane, always a
        Python/NumPy scalar at run time), *axis-affine* (depends on the
        vectorised loop variable only, as ``coeff * k + d`` with a
        constant ``coeff != 0``) or *lane-dependent* (anything else).
        ``axis_at`` is the position of the one axis-affine index of an
        access whose other indices are all scalar — the accesses that
        are basic slices of the buffer — and None otherwise.
        """
        compiled = [self.compile(i) for i in exprs]
        fns = [f for f, _ in compiled]
        deps = [d for _, d in compiled]
        axis_at, coeff = None, 0
        varying = [d for d, dep in enumerate(deps) if dep]
        if len(varying) == 1 and deps[varying[0]] == AXIS:
            coeff = _affine_coeff(exprs[varying[0]], self.axis_var)
            if coeff:
                axis_at = varying[0]
        return fns, deps, axis_at, coeff

    def checked_at(self, buffer: Buffer, exprs: Sequence[PrimExpr], fns=None):
        """``fn(ctx) -> tuple`` of an access's indices as ``_checked``
        passes them, the proved immediates (:func:`_immediates`) as
        constants: an access with nothing else is one resident tuple.
        ``fns`` are the compiled ``exprs``, if the caller has them."""
        if fns is None:
            fns = [self.compile(e)[0] for e in exprs]
        steps = [
            (None, e.value) if proved else (f, d)
            for d, (e, f, proved) in enumerate(
                zip(exprs, fns, _immediates(buffer, exprs))
            )
        ]
        if all(f is None for f, _ in steps):
            const = tuple(v for _, v in steps)
            return lambda ctx: const
        return lambda ctx: tuple(
            v if f is None else _checked(ctx, buffer, v, f(ctx))
            for f, v in steps
        )

    def _load(self, e: BufferLoad) -> Tuple[Callable, int]:
        buffer = e.buffer
        fns, deps, axis_at, coeff = self.indices(e.indices)
        idx_dep = 0
        for d in deps:
            idx_dep |= d
        batched = buffer in self.plan.batched
        dep = (LANE | idx_dep) if batched else idx_dep
        axis_mode = self.axis_var is not None
        lead = (slice(None),) if batched else ()
        column = batched and axis_mode  # (L,) values broadcast as (L, 1)

        if idx_dep == 0:
            at = self.checked_at(buffer, e.indices, fns)

            def fn(ctx):
                v = ctx.bufs[buffer][lead + at(ctx)]
                return v[:, None] if column else v

            return fn, dep

        # Dimensions a call still tests: all but the proved immediates
        # and, when its endpoints are inside, the axis-affine one.
        tested = [
            d for d, ok in enumerate(_immediates(buffer, e.indices)) if not ok
        ]

        def test(ctx, idx, skip=None):
            for d in tested:
                if d != skip:
                    idx[d] = _checked(ctx, buffer, d, idx[d])
            return tuple(idx)

        def checked(ctx, arr, idx):
            full = test(ctx, idx)  # some index is an array: idx_dep != 0
            if not batched:
                return arr[full]
            rows = ctx.lanes[:, None] if axis_mode else ctx.lanes
            return arr[(rows,) + full]

        if axis_at is None:
            return (
                lambda ctx: checked(
                    ctx, ctx.bufs[buffer], [f(ctx) for f in fns]
                )
            ), dep

        dim = buffer.shape[axis_at]

        def fn(ctx):
            arr = ctx.bufs[buffer]
            idx = [f(ctx) for f in fns]
            sl = _axis_slice(idx[axis_at], coeff, dim)
            if sl is None:
                return checked(ctx, arr, idx)
            idx[axis_at] = sl
            # A view: (L, n) of a batched buffer, (n,) of a shared one.
            return arr[lead + test(ctx, idx, skip=axis_at)]

        return fn, dep


#: The binary operators the compiler takes, as their Python operators.
_BINOPS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    FloorDiv: operator.floordiv,
    FloorMod: operator.mod,
    LT: operator.lt,
    LE: operator.le,
    GT: operator.gt,
    GE: operator.ge,
    EQ: operator.eq,
    NE: operator.ne,
}


# ---------------------------------------------------------------------------
# statement ops
# ---------------------------------------------------------------------------


class _SeqOp:
    def __init__(self, ops):
        self.ops = ops

    def run(self, ctx):
        for op in self.ops:
            op.run(ctx)


class _StoreOp:
    def __init__(self, plan, stmt: BufferStore, ec: "_ExprCompiler"):
        self.buffer = stmt.buffer
        self.batched = stmt.buffer in plan.batched
        if not self.batched and not plan.allow_shared_store:
            raise VectorizeError("store to shared (non-batched) buffer")
        self.vfn, _ = ec.compile(stmt.value)
        self.at = ec.checked_at(stmt.buffer, stmt.indices)

    def run(self, ctx):
        buffer = self.buffer
        arr = ctx.bufs[buffer]
        full = self.at(ctx)
        val = self.vfn(ctx)
        scalar_idx = all(not isinstance(i, np.ndarray) for i in full)
        if self.batched:
            if scalar_idx:
                # One element per lane: a strided view of the buffer.
                # NumPy buffers an assignment whose source overlaps its
                # destination, so a value that is a view of ``arr`` (a
                # block-form load of the same buffer) is safe.
                view = arr[(slice(None),) + full]
                if ctx.mask is None:
                    np.copyto(view, val, casting="unsafe")
                else:
                    np.copyto(view, val, where=ctx.mask, casting="unsafe")
                return
            rows = ctx.lanes
            if ctx.mask is not None:
                sel = ctx.mask
                rows = rows[sel]
                full = [i[sel] if isinstance(i, np.ndarray) else i for i in full]
                if isinstance(val, np.ndarray):
                    val = val[sel]
            arr[(rows,) + tuple(full)] = val
            return
        # Shared buffer: a host program's.  A lane loop's stores index the
        # lane variable (``_lane_safe``), so a scalar index is a lone
        # statement's: one lane, no mask, a scalar value.
        if scalar_idx:
            arr[full] = val
            return
        if ctx.mask is not None:
            sel = ctx.mask
            full = [i[sel] if isinstance(i, np.ndarray) else i for i in full]
            if isinstance(val, np.ndarray):
                val = val[sel]
        arr[tuple(full)] = val


class _IfOp:
    """A boundary check (§5.3)."""

    def __init__(self, stmt: IfThenElse, sc: "_StmtCompiler"):
        self.cfn, self.cdep = sc.expr.compile(stmt.condition)
        self.then_op = sc.compile(stmt.then_case)

    def run(self, ctx):
        c = self.cfn(ctx)
        if self.cdep == 0:
            if c:
                self.then_op.run(ctx)
            return
        c = np.asarray(c, dtype=bool)
        old = ctx.mask
        mt = c if old is None else (c & old)
        if not mt.any():
            return
        ctx.mask = None if (old is None and mt.all()) else mt
        try:
            self.then_op.run(ctx)
        finally:
            ctx.mask = old


class _ForOp:
    def __init__(self, var, efn, edep, body_op):
        self.var = var
        self.efn = efn
        self.edep = edep
        self.body_op = body_op

    def run(self, ctx):
        ext = self.efn(ctx)
        var, body = self.var, self.body_op
        if self.edep == 0:
            for i in range(int(ext)):
                ctx.env[var] = i
                body.run(ctx)
            ctx.env.pop(var, None)
            return
        # Lane-dependent extent: iterate to the max, masking finished lanes.
        ext = np.asarray(ext)
        n = int(ext.max()) if ext.size else 0
        old = ctx.mask
        try:
            for i in range(n):
                active = ext > i
                if old is None:
                    ctx.mask = None if active.all() else active
                else:
                    m = active & old
                    if not m.any():
                        break
                    ctx.mask = m
                ctx.env[var] = i
                body.run(ctx)
        finally:
            ctx.mask = old
            ctx.env.pop(var, None)


class _DmaOp:
    """A burst between two per-lane buffers (an MRAM tile and WRAM): the
    lowering emits DMA in kernels only."""

    def __init__(self, plan, stmt: DmaCopy, ec: "_ExprCompiler"):
        self.dst, self.src = stmt.dst, stmt.src
        if not {stmt.dst, stmt.src} <= plan.batched:
            raise VectorizeError("DMA to or from a shared buffer")
        self.n = stmt.size
        self.dsize, self.ssize = stmt.dst.size, stmt.src.size
        self.dbase = self._terms(ec, stmt.dst_base, stmt.dst.shape)
        self.sbase = self._terms(ec, stmt.src_base, stmt.src.shape)

    @staticmethod
    def _terms(ec, base, shape):
        """The immediates' share of the flat offset, clipped here, and
        ``(index fn, extent, row-major stride)`` per other dimension."""
        strides, stride = [], 1
        for dim in reversed(shape):
            strides.append(stride)
            stride *= dim
        const, terms = 0, []
        for i, dim, s in zip(base, shape, reversed(strides)):
            if isinstance(i, IntImm):
                const += _clamp(i.value, dim)[0] * s
            else:
                terms.append((ec.compile(i)[0], dim, s))
        return const, terms

    @staticmethod
    def _offset(ctx, base):
        """Flat element offset with per-dim clipping (ravel mode="clip")."""
        off, terms = base
        for f, dim, s in terms:
            off = off + _clamp(f(ctx), dim)[0] * s
        return off

    def run(self, ctx):
        L, dsize, ssize = ctx.L, self.dsize, self.ssize
        dst = ctx.bufs[self.dst].reshape(L, dsize)
        src = ctx.bufs[self.src].reshape(L, ssize)
        doff = self._offset(ctx, self.dbase)
        soff = self._offset(ctx, self.sbase)
        n = self.n
        scalar = not isinstance(doff, np.ndarray) and not isinstance(
            soff, np.ndarray
        )
        if scalar and ctx.mask is None:
            # Both bases are clamped into their buffers, so at least one
            # element is left on each side: n_eff >= min(n, 1).
            n_eff = min(n, dsize - doff, ssize - soff)
            dst[:, doff : doff + n_eff] = src[:, soff : soff + n_eff]
            return
        # General path: per-lane offsets and/or an active-lane mask.
        doff_a = np.broadcast_to(np.asarray(doff), (L,))
        soff_a = np.broadcast_to(np.asarray(soff), (L,))
        ne = np.minimum(n, np.minimum(dsize - doff_a, ssize - soff_a))
        k = np.arange(n)
        sel = k < ne[:, None]
        if ctx.mask is not None:
            sel = sel & ctx.mask[:, None]
        didx = np.minimum(doff_a[:, None] + k, dsize - 1)
        sidx = np.minimum(soff_a[:, None] + k, ssize - 1)
        svals = src[ctx.lanes[:, None], sidx]
        rows = np.broadcast_to(ctx.lanes[:, None], sel.shape)
        dst[rows[sel], didx[sel]] = svals[sel]


class _FallbackOp:
    """Runs one statement subtree through the scalar Interpreter, per lane."""

    def __init__(self, plan, stmt: Stmt):
        self.plan = plan
        self.stmt = stmt
        plan.fallbacks.append(stmt)

    def run(self, ctx):
        mask = ctx.mask
        batched = self.plan.batched
        for lane in range(ctx.L):
            if mask is not None and not mask[lane]:
                continue
            local = {
                buf: (arr[lane] if buf in batched else arr)
                for buf, arr in ctx.bufs.items()
            }
            env: Dict[Var, int] = {
                v: int(vals[lane]) for v, vals in ctx.lane_vals.items()
            }
            env.update(ctx.env)
            Interpreter(local).run(self.stmt, env)


#: Summands a ufunc can write straight into the scan buffer of a
#: :class:`_VecReduceOp`.
_SCAN_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply}

#: Bytes of scan buffer a :class:`_VecReduceOp` holds per chunk.  A
#: folded block loop scans a whole row — ``mtv`` 64MB is 4 096 steps x
#: 2 048 lanes, 32 MB in one piece, which read +12 % ``peak_rss_mb`` on
#: the ``kernels`` benchmark; 1 MB (256 steps x 1 024 lanes) keeps the
#: slab and its operands' windows in cache and costs nothing in time
#: (any slab of >= 128 steps scans at the same rate).
_SCAN_BYTES = 1024 * 1024

#: Bytes of per-lane buffers one chunk of :meth:`KernelPlan.run_points`
#: may stack: longer lane ranges run as several chunks.
_LANE_BUDGET_BYTES = 256 * 1024 * 1024


def _reduction(body: Stmt, loop_vars: Sequence[Var]) -> Optional[PrimExpr]:
    """The summand of ``T[i] = T[i] + rest`` (either operand order) if
    ``body`` is that store, ``i`` uses none of ``loop_vars`` and ``rest``
    does not read ``T``; else None.  (A summand of another dtype than
    ``T`` is scanned step by step: :class:`_VecReduceOp`.)"""
    if not isinstance(body, BufferStore) or not isinstance(body.value, Add):
        return None
    target, idx, val = body.buffer, body.indices, body.value
    if any(_contains_var(i, v) for i in idx for v in loop_vars):
        return None
    for acc, rest in ((val.a, val.b), (val.b, val.a)):
        if (
            isinstance(acc, BufferLoad)
            and acc.buffer is target
            and len(acc.indices) == len(idx)
            and all(_same_index(x, y) for x, y in zip(acc.indices, idx))
        ):
            break
    else:
        return None
    if _loads_buffer(rest, target):
        return None
    return rest


#: Bytes the fold's rows are padded to: the widest SIMD register NumPy
#: adds with (AVX-512).  Its ``add`` loop takes whole registers in one
#: operand order and a row's short tail in the other, which decides whose
#: NaN comes out of NaN + NaN.  Padded rows have no tail, so every lane
#: keeps the accumulator's NaN, as ``np.add.accumulate`` does.  (The
#: scalar interpreter's NumPy scalars keep the summand's, so where two
#: NaNs meet, vector and scalar bytes may differ.)
_FOLD_ALIGN = 64


def _fold_rows(lanes: int, steps: int, dtype) -> tuple:
    """The shape of the scratch :func:`_fold` transposes a scan buffer of
    ``lanes`` x ``steps`` into."""
    per = _FOLD_ALIGN // np.dtype(dtype).itemsize
    return (steps, -(-lanes // per) * per)


def _fold(w: np.ndarray, rows: np.ndarray, stops=None) -> np.ndarray:
    """Each row of the scan buffer ``w`` — an accumulator in column 0,
    then its summands — folded strictly left to right up to column
    ``stops[lane]`` (the last when ``stops`` is None): the bytes of
    ``np.add.accumulate(w, axis=1)`` at those columns, which are the
    scalar loop's partial sums.

    ``w`` is copied transposed into ``rows``, zero-filled scratch of at
    least :func:`_fold_rows` shape whose padding columns this never
    writes.  The fold then runs down the slow axis, where
    ``np.add.reduce`` adds one whole row at a time: a left fold per lane,
    vectorised across lanes.  Lanes that stop early are grouped by stop,
    shortest first, and each group starts from the partial sums of the
    one before, written into the row it starts at, so every row is added
    once however many groups there are.  One lane keeps the sequential
    ``np.add.accumulate`` along its row of ``w``: an unpadded ``(n, 1)``
    column would be contiguous along the fold, which NumPy sums pairwise,
    not left to right, and the padded one is several times the work of
    the accumulate.
    """
    lanes, n = w.shape
    if lanes == 1:
        sums = np.add.accumulate(w[0], dtype=w.dtype)
        return sums[-1:] if stops is None else sums[stops]
    t = rows[:n]
    t[:, :lanes] = w.T
    # NumPy's reduce starts from +0.0, and +0.0 + -0.0 is +0.0: a lane of
    # nothing but -0.0 would lose its sign.  -0.0 + x is x for every x.
    start = w.dtype.type(-0.0)
    if stops is None:
        return np.add.reduce(t, axis=0, dtype=w.dtype, initial=start)[:lanes]
    out = np.empty(lanes, w.dtype)
    lo = 0
    for stop in np.unique(stops):
        if lo:
            t[lo, :lanes] = acc
        acc = np.add.reduce(
            t[lo : stop + 1], axis=0, dtype=w.dtype, initial=start
        )[:lanes]
        np.copyto(out, acc, where=stops == stop)
        lo = stop
    return out


class _VecReduceOp:
    """``for k in extent: T[i] = T[i] + rest(k)`` as one sequential scan.

    Each slab's scan buffer (the accumulator, then the summands) goes to
    :func:`_fold`, a strict left fold, so the partial sums match the
    scalar loop bit for bit.  A long axis is scanned in slabs of at most
    :data:`_SCAN_BYTES` that carry the accumulator from one to the next
    — the same fold, cut anywhere.  Lane-dependent extents stop each
    lane at its own trip count.  Under a lane mask every
    lane is scanned (``_checked`` clamps a masked lane's index instead of
    raising) and only the live lanes are written back.  Falls back to
    the generic loop when the summand's dtype is not the accumulator's.

    ``rest`` is ``(ufunc, operands)``: for ``a * b`` (``+``, ``-``) at the
    top of the summand ``operands(ctx)`` is the pair and the ufunc writes
    their product straight into the chunk's scan buffer; anything else is
    ``(None, fn)`` and ``(fn(ctx),)`` is copied there.
    """

    def __init__(self, plan, target, at, efn, edep, rest, generic):
        self.plan = plan
        self.target = target
        self.batched = target in plan.batched
        self.at = at  # ctx -> the accumulator's checked indices
        self.efn, self.edep = efn, edep
        self.ufunc, self.operands = rest
        self.generic = generic

    def run(self, ctx):
        mask = ctx.mask
        arr = ctx.bufs[self.target]
        ext = self.efn(ctx)
        full = self.at(ctx)
        scalar_idx = all(not isinstance(i, np.ndarray) for i in full)
        if not self.batched:
            windex = full
        elif scalar_idx:
            windex = (slice(None),) + full  # an (L,) view, not a gather
        else:
            windex = (ctx.lanes,) + full
        acc = arr[windex]
        trips = ext if isinstance(ext, np.ndarray) else None
        if trips is None:
            n = int(ext)
        else:
            live = trips if mask is None else trips[mask]
            n = int(live.max()) if live.size else 0
        if n <= 0:
            return
        npt = arr.dtype
        slab = max(1, min(n, _SCAN_BYTES // (ctx.L * npt.itemsize)))
        space = ctx.workspace("scan", (ctx.L, slab + 1), npt)
        rows = ctx.workspace("fold", _fold_rows(ctx.L, slab + 1, npt), npt)
        old_k, old_v = ctx.axis_k, ctx.vmask
        try:
            for lo in range(0, n, slab):
                width = min(slab, n - lo)
                ctx.axis_k = np.arange(lo, lo + width)
                if trips is not None:
                    ctx.vmask = ctx.axis_k < trips[:, None]
                args = self.operands(ctx)
                if lo == 0 and np.result_type(*args) != npt:
                    # Per-step cast rounding differs from one wide
                    # fold.  Nothing is written yet.
                    acc = None
                    break
                w = space[:, : width + 1]
                w[:, 0] = acc
                if self.ufunc is None:
                    w[:, 1:] = args[0]
                else:
                    self.ufunc(*args, out=w[:, 1:])
                acc = _fold(
                    w, rows,
                    None if trips is None else np.clip(trips - lo, 0, width),
                )
        finally:
            ctx.axis_k, ctx.vmask = old_k, old_v
        if acc is None:
            self.generic.run(ctx)
        elif mask is None:
            # A lone host statement's accumulator is one element.
            arr[windex] = acc[0] if scalar_idx and not self.batched else acc
        elif scalar_idx:
            np.copyto(arr[windex], acc, where=mask)
        else:
            arr[
                tuple(
                    i[mask] if isinstance(i, np.ndarray) else i
                    for i in windex
                )
            ] = acc[mask]


class _VecMapOp:
    """An innermost loop whose store index is injective in the loop var.

    When the index that carries the loop variable is axis-affine and the
    others are scalar (``axis_at``, known when the plan was built), the
    stored elements are a basic slice of the buffer and the store is one
    ``copyto`` into that view; an endpoint outside the buffer, or any
    lane-dependent index, takes the checked scatter instead.
    """

    def __init__(self, target, batched, indices, proved, efn, edep, vfn, cfn):
        self.target = target
        self.batched = batched
        self.idx_fns, _, self.axis_at, self.coeff = indices
        self.proved = proved  # per index: an immediate inside the buffer
        self.efn, self.edep = efn, edep
        self.vfn = vfn
        self.cfn = cfn  # optional guard, compiled in axis mode

    def run(self, ctx):
        buffer = self.target
        arr = ctx.bufs[buffer]
        ext = self.efn(ctx)
        if isinstance(ext, np.ndarray):
            n = int(ext.max()) if ext.size else 0
        else:
            n = int(ext)
        if n <= 0:
            return
        L = ctx.L
        sel = None  # (L, n) selection of positions actually stored
        if isinstance(ext, np.ndarray):
            sel = np.arange(n) < ext[:, None]
        if ctx.mask is not None:
            m = ctx.mask[:, None]
            sel = m if sel is None else (sel & m)
        old_k, old_v = ctx.axis_k, ctx.vmask
        ctx.axis_k = np.arange(n)
        ctx.vmask = sel
        try:
            idx = [f(ctx) for f in self.idx_fns]
            if self.cfn is not None:
                c = np.asarray(self.cfn(ctx), dtype=bool)
                sel = c if sel is None else (sel & c)
                if not sel.any():
                    return
            val = self.vfn(ctx)
            at, sl = self.axis_at, None
            if at is not None:
                sl = _axis_slice(idx[at], self.coeff, buffer.shape[at])
            full = [
                sl
                if sl is not None and d == at
                else i
                if proved
                else _checked(ctx, buffer, d, i)
                for d, (i, proved) in enumerate(zip(idx, self.proved))
            ]
        finally:
            ctx.axis_k, ctx.vmask = old_k, old_v
        if sl is not None:
            lead = (slice(None),) if self.batched else ()
            view = arr[lead + tuple(full)]  # (L, n), or (n,) when shared
            if sel is None:
                np.copyto(view, val, casting="unsafe")
            else:
                np.copyto(view, val, where=sel, casting="unsafe")
            return
        sel = np.broadcast_to(True if sel is None else sel, (L, n))
        full = [
            np.broadcast_to(i, (L, n))[sel]
            if isinstance(i, np.ndarray)
            else i
            for i in full
        ]
        if isinstance(val, np.ndarray):
            val = np.broadcast_to(val, (L, n))[sel]
        if self.batched:
            full.insert(0, np.broadcast_to(ctx.lanes[:, None], (L, n))[sel])
        arr[tuple(full)] = val


# ---------------------------------------------------------------------------
# statement compiler
# ---------------------------------------------------------------------------


class _StmtCompiler:
    def __init__(self, plan):
        self.plan = plan
        self.expr = _ExprCompiler(plan)

    def compile(self, stmt: Stmt):
        """Compile one statement; unsupported subtrees become fallbacks."""
        try:
            return self._compile(stmt)
        except VectorizeError:
            return _FallbackOp(self.plan, stmt)

    def _compile(self, stmt: Stmt):
        if isinstance(stmt, SeqStmt):
            return _SeqOp([self.compile(s) for s in stmt.stmts])
        if isinstance(stmt, For):
            return self._compile_for(stmt)
        if isinstance(stmt, IfThenElse):
            return _IfOp(stmt, self)
        if isinstance(stmt, BufferStore):
            return _StoreOp(self.plan, stmt, self.expr)
        if isinstance(stmt, DmaCopy):
            return _DmaOp(self.plan, stmt, self.expr)
        if isinstance(stmt, Barrier):
            return _SeqOp(())  # tasklets execute serially: a no-op
        raise VectorizeError(f"cannot vectorize {type(stmt).__name__}")

    def _compile_for(self, stmt: For):
        efn, edep = self.expr.compile(stmt.extent)
        op = self._try_reduce(stmt, efn, edep)
        if op is not None:
            return op
        op = self._try_map(stmt, efn, edep)
        if op is not None:
            return op
        body_op = self._compile(stmt.body)
        return _ForOp(stmt.var, efn, edep, body_op)

    def _generic_for(self, stmt: For, efn, edep):
        return _ForOp(stmt.var, efn, edep, self.compile(stmt.body))

    def _try_reduce(self, stmt: For, efn, edep):
        var = stmt.var
        rest = _reduction(stmt.body, (var,))
        if rest is None:
            return None
        target, idx = stmt.body.buffer, stmt.body.indices
        if target not in self.plan.batched and not self.plan.allow_shared_store:
            return None
        ax = _ExprCompiler(self.plan, axis_var=var)
        ufunc = _SCAN_UFUNCS.get(type(rest))
        if ufunc is None:
            fn, _ = ax.compile(rest)

            def operands(ctx):
                return (fn(ctx),)

        else:
            a, b, operands, _ = ax.operands(rest.a, rest.b)
            if operands is None:

                def operands(ctx):
                    return a(ctx), b(ctx)

        at = self.expr.checked_at(target, idx)
        generic = self._generic_for(stmt, efn, edep)
        return _VecReduceOp(
            self.plan, target, at, efn, edep, (ufunc, operands), generic
        )

    def _try_map(self, stmt: For, efn, edep):
        var, body = stmt.var, stmt.body
        cond = None
        if (
            isinstance(body, IfThenElse)
            and isinstance(body.then_case, BufferStore)
        ):
            cond, store = body.condition, body.then_case
        elif isinstance(body, BufferStore):
            store = body
        else:
            return None
        target = store.buffer
        if _loads_buffer(store.value, target):
            return None
        if cond is not None and _loads_buffer(cond, target):
            return None
        # Each index that carries ``var`` is injective in it.
        carriers = [i for i in store.indices if _contains_var(i, var)]
        if not carriers or not all(_affine_coeff(i, var) for i in carriers):
            return None
        batched = target in self.plan.batched
        if not batched and self.plan.lane_vars:
            # Across lanes an unbatched scatter may collide; the generic
            # masked loop handles it safely instead.
            return None
        ax = _ExprCompiler(self.plan, axis_var=var)
        indices = ax.indices(store.indices)
        vfn, _ = ax.compile(store.value)
        cfn = ax.compile(cond)[0] if cond is not None else None
        proved = _immediates(target, store.indices)
        return _VecMapOp(
            target, batched, indices, proved, efn, edep, vfn, cfn
        )


# ---------------------------------------------------------------------------
# kernel normalisation: read through WRAM staging, fold the block loop
# ---------------------------------------------------------------------------


def _proved(expr: PrimExpr, lo: int, hi: int, env: Dict[Var, Interval]) -> bool:
    """``lo <= expr <= hi`` for every value of the variables in ``env``."""
    iv = eval_interval(expr, env)
    return (
        iv is not None
        and iv.lo is not None
        and iv.hi is not None
        and lo <= iv.lo
        and iv.hi <= hi
    )


class _StagingScan(StmtVisitor):
    """One walk of a kernel that finds the staging bursts it can read
    through — the rule and its proofs are in the module docstring."""

    def __init__(self, module: LoweredModule) -> None:
        self.wram = set(module.wram_buffers)
        self.tiles = {s.local_buffer for s in module.transfer("h2d")}
        #: Grid and enclosing loop variables -> the values they take.
        self.env = {d.var: Interval(0, d.extent - 1) for d in module.grid}
        self.writes: Counter = Counter()  # stores and DMAs into a buffer
        self.dma_sources: set = set()
        self.bursts: Dict[Buffer, DmaCopy] = {}  # W -> its proved burst
        #: W -> burst, while walking what follows it in its SeqStmt.
        self.live: Dict[Buffer, DmaCopy] = {}
        self.refused: set = set()  # W with a load that cannot move

    def forwardable(self) -> Dict[Buffer, DmaCopy]:
        return {
            w: dma
            for w, dma in self.bursts.items()
            if self.writes[w] == 1
            and not self.writes[dma.src]
            and w not in self.dma_sources
            and w not in self.refused
        }

    def _whole_burst(self, dma: DmaCopy) -> bool:
        """``W <- M[b]`` overwrites all of ``W`` from inside one row of
        an H2D tile, whatever the grid point and loop iteration."""
        w, m, n = dma.dst, dma.src, dma.size
        if w not in self.wram or m not in self.tiles or w.dtype != m.dtype:
            return False
        if n != w.size or w.shape[-1] != n:
            return False
        if not all(is_const_int(i, 0) for i in dma.dst_base):
            return False
        *rows, last = dma.src_base
        *dims, width = m.shape
        return all(
            _proved(b, 0, dim - 1, self.env) for b, dim in zip(rows, dims)
        ) and _proved(last, 0, width - n, self.env)

    def visit_BufferStore(self, node) -> None:
        self.writes[node.buffer] += 1

    def visit_DmaCopy(self, node) -> None:
        self.writes[node.dst] += 1
        self.dma_sources.add(node.src)
        if self._whole_burst(node):
            self.bursts[node.dst] = node

    def visit_BufferLoad(self, node) -> None:
        if node.buffer not in self.wram:
            return
        dma = self.live.get(node.buffer)
        *lead, j = node.indices
        if (
            dma is None
            or not all(is_const_int(i, 0) for i in lead)
            or not _proved(j, 0, dma.size - 1, self.env)
        ):
            self.refused.add(node.buffer)

    def generic_visit_stmt(self, node: Stmt) -> None:
        if isinstance(node, For):
            self.visit(node.extent)
            for w, dma in self.live.items():
                # Rebinding a variable of ``b`` would change its meaning.
                if any(_contains_var(b, node.var) for b in dma.src_base):
                    self.refused.add(w)
            trips = eval_interval(node.extent, self.env)
            outer = self.env.get(node.var)
            self.env[node.var] = Interval(
                0, None if trips is None or trips.hi is None else trips.hi - 1
            )
            self.visit_stmt(node.body)
            if outer is None:
                del self.env[node.var]
            else:
                self.env[node.var] = outer
        elif isinstance(node, SeqStmt):
            opened = []
            for s in node.stmts:
                self.visit_stmt(s)
                if isinstance(s, DmaCopy) and self.bursts.get(s.dst) is s:
                    self.live[s.dst] = s
                    opened.append(s.dst)
            for w in opened:
                del self.live[w]
        else:
            super().generic_visit_stmt(node)


class _ReadThrough(StmtMutator):
    """Drops the staging bursts in ``forward`` and loads ``M[.., b + j]``
    where the kernel loads ``W[.., j]``."""

    def __init__(self, forward: Dict[Buffer, DmaCopy]) -> None:
        self.forward = forward

    def visit_DmaCopy(self, node):
        if self.forward.get(node.dst) is node:
            return None
        return self.generic_visit_stmt(node)

    def visit_BufferLoad(self, node):
        dma = self.forward.get(node.buffer)
        if dma is None:
            return None
        *rows, b = dma.src_base
        j = self.visit(node.indices[-1])
        return BufferLoad(dma.src, [*rows, simplify(b + j)])


class _FoldBlocks(StmtMutator):
    """``for k.o in E: for k.i in c: T[i] = T[i] + f(k.o, k.i)`` becomes
    ``for k in E * c: T[i] = T[i] + f'(k)`` — the same left fold in the
    same order — when ``i`` uses neither variable and they occur in ``f``
    only inside load indices affine in both with ``coeff(k.o) == c *
    coeff(k.i)``, which are then affine in ``k = c * k.o + k.i``."""

    def __init__(self) -> None:
        self.folded = 0

    def visit_For(self, node):
        node = self.generic_visit_stmt(node)  # innermost pair first
        inner = node.body if isinstance(node, For) else None
        if not isinstance(inner, For) or not is_const_int(inner.extent):
            return node
        c, pair = inner.extent.value, (node.var, inner.var)
        if c < 1 or _reduction(inner.body, pair) is None:
            return node
        k = Var(f"{node.var.name}:{inner.var.name}")
        value = _BlockIndex(pair, c, k).visit(inner.body.value)
        if any(v in pair for v in free_vars(value)):
            return node
        self.folded += 1
        store = BufferStore(inner.body.buffer, value, inner.body.indices)
        return For(k, simplify(node.extent * c), store)


class _BlockIndex(ExprMutator):
    """Rewrites the load indices :class:`_FoldBlocks` can express in the
    folded variable; any other use of the pair is left in place, for the
    caller to find."""

    def __init__(self, pair, c: int, k: Var) -> None:
        self.pair, self.c = pair, c
        self.to_k = {pair[0]: IntImm(0), pair[1]: k}

    def visit_BufferLoad(self, node):
        outer, inner = self.pair
        indices = list(node.indices)
        for d, i in enumerate(indices):
            if _contains_var(i, outer) or _contains_var(i, inner):
                dec = affine_coeffs(i)
                if dec is None:
                    return node
                coeffs = dec[0]
                if coeffs.get(outer, 0) != self.c * coeffs.get(inner, 0):
                    return node
                indices[d] = simplify(substitute(i, self.to_k))
        return BufferLoad(node.buffer, indices)


def _normalise(module: LoweredModule) -> Tuple[Stmt, int, int]:
    """The kernel the plan compiles, the staging bursts it reads through
    and the block loops it folded.  The module is left as lowered: the
    scalar interpreter — and so ``REPRO_SIM_MODE=verify`` — runs that."""
    scan = _StagingScan(module)
    scan.visit_stmt(module.kernel)
    forward = scan.forwardable()
    kernel = module.kernel
    if forward:
        kernel = _ReadThrough(forward).visit_stmt(kernel) or SeqStmt([])
    fold = _FoldBlocks()
    return fold.visit_stmt(kernel), len(forward), fold.folded


# ---------------------------------------------------------------------------
# whole-module plans
# ---------------------------------------------------------------------------


class _BufferRefs(StmtVisitor):
    """Every buffer a statement loads, stores or DMA-copies."""

    def __init__(self) -> None:
        self.buffers: set = set()

    def visit_BufferLoad(self, node) -> None:
        self.buffers.add(node.buffer)

    def visit_BufferStore(self, node) -> None:
        self.buffers.add(node.buffer)

    def visit_DmaCopy(self, node) -> None:
        self.buffers.update((node.dst, node.src))


class KernelPlan:
    """Compiled batched execution of a module's per-DPU offload sequence.

    The lane axis is the *lane space* of a batch of executions of the
    program: item-major, one lane per (item, grid point) — lane
    ``i * G + g`` is grid point ``g`` of item ``i``, and a lone ``run``
    is the batch of one.  The kernel op tree runs once over ``(L, ...)``
    batched local buffers.  Chunks the lane axis to bound peak memory.

    Transfers split a chunk's lanes into *interior* and *boundary*
    (:class:`_Placement`): a lane whose tile lies wholly on its item's
    host tensor is interior, and all interior lanes of a tensor move as
    one block — H2D as one gather of tensor windows, which *is* the
    ``(L, *tile)`` local buffer (no zero fill, no index, no mask), D2H as
    one scatter in lane order; only lanes whose tile crosses a tensor
    edge are filled and written back element by element, zero-padded and
    masked as the scalar executor does per grid point.

    Which lanes those are is the program's, not the call's: the plan
    keeps one :class:`_Chunk` per chunk shape (see "What a call
    recomputes" in the module docstring).
    """

    allow_shared_store = False

    def __init__(self, module: LoweredModule) -> None:
        self.module = module
        self.lane_vars = set(module.grid_vars())
        self.batched = {s.local_buffer for s in module.transfers}
        self.batched |= set(module.mram_internal)
        self.batched |= set(module.wram_buffers)
        self.fallbacks: List[Stmt] = []
        ec = _ExprCompiler(self)
        #: Per transfer, in module order: its spec, its tile-origin
        #: functions, and the dtype of a lane's tile.
        self._transfers = [
            (
                spec,
                [ec.compile(b)[0] for b in spec.base],
                _np_dtype(spec.local_buffer),
            )
            for spec in module.transfers
        ]
        #: Buffers a chunk starts zeroed besides its D2H tiles.
        self._zeroed = [
            (buf, tuple(buf.shape), _np_dtype(buf))
            for buf in (*module.mram_internal, *module.wram_buffers)
        ]
        #: The kernel as compiled, and how many staging bursts it reads
        #: through / block loops it folded (see :func:`_normalise`).
        self.kernel, self.forwarded, self.folded = _normalise(module)
        self.kernel_op = _StmtCompiler(self).compile(self.kernel)
        self._bytes_per_lane = module.local_bytes_per_dpu()
        #: Grid coordinates in canonical (row-major) order, one row per
        #: grid point: what a lane's position inside its item selects.
        points = list(
            itertools.product(*[range(dim.extent) for dim in module.grid])
        )
        self._grid = np.array(points, dtype=np.int64).reshape(
            len(points), len(module.grid)
        )
        #: Items may share a chunk only if the kernel touches nothing
        #: but per-lane buffers; one that reads or writes a host tensor
        #: directly (out of model, see ``_FallbackOp``) runs item by item.
        refs = _BufferRefs()
        refs.visit_stmt(module.kernel)
        self._stackable = refs.buffers <= self.batched
        #: ``(first lane's grid point, lanes)`` -> :class:`_Chunk`, oldest
        #: first; at most :data:`_CHUNK_SHAPES` of them, holding at most
        #: :data:`_ELEMENT_BYTES` of boundary-lane indices between them.
        self._chunks: Dict[Tuple[int, int], _Chunk] = {}
        self._element_bytes = 0
        self._lock = threading.Lock()  # inserts, evictions, the byte count

    # -- driving ------------------------------------------------------------
    def max_lanes(self, total: int) -> int:
        return max(1, min(total, _LANE_BUDGET_BYTES // self._bytes_per_lane))

    def _cuts(self, lanes: range):
        """``lanes`` as the ``(lo, hi)`` chunks :meth:`run_points` runs."""
        grid = len(self._grid)
        cap = self.max_lanes(len(lanes))
        lo = lanes.start
        while lo < lanes.stop:
            hi = min(lo + cap, lanes.stop)
            if not self._stackable:
                hi = min(hi, (lo // grid + 1) * grid)
            yield lo, hi
            lo = hi

    def run_points(
        self,
        states: Sequence[Dict[Buffer, np.ndarray]],
        lanes: range,
    ) -> None:
        """Execute ``lanes`` of the lane space of the prepared ``states``
        (one ``Buffer -> array`` dict per batch item)."""
        for lo, hi in self._cuts(lanes):
            self._run_chunk(states, lo, hi)

    def _run_chunk(self, states, lo: int, hi: int) -> None:
        L = hi - lo
        grid = len(self._grid)
        chunk = self._chunk(lo % grid, L)
        # (state, first lane, end lane) of every item the chunk touches,
        # lane numbers relative to the chunk.
        item = lo // grid
        runs = [
            (states[item + j], a, b) for j, (a, b) in enumerate(chunk.items)
        ]
        # Host tensors are visible to the op tree only when the chunk is
        # one item's (a stackable kernel never looks at them).
        bufs = dict(runs[0][0]) if len(runs) == 1 else {}
        ctx = _Ctx(bufs, chunk.lane_vals, L, chunk.lanes)
        for (spec, _, dtype), place in zip(self._transfers, chunk.places):
            shape = (L,) + place.tile
            bufs[spec.local_buffer] = (
                self._fill(runs, spec, place, shape, dtype)
                if spec.direction == "h2d"
                else np.zeros(shape, dtype)
            )
        for buf, shape, dtype in self._zeroed:
            bufs[buf] = np.zeros((L,) + shape, dtype)
        self.kernel_op.run(ctx)
        for (spec, _, _), place in zip(self._transfers, chunk.places):
            if spec.direction == "d2h":
                self._writeback(runs, spec, place, bufs[spec.local_buffer])

    # -- what a chunk shape fixes -------------------------------------------
    def _chunk(self, first: int, L: int) -> "_Chunk":
        """The resident geometry of a chunk of ``L`` lanes whose first
        lane is grid point ``first``; built, and kept, on first use."""
        key = (first, L)
        chunk = self._chunks.get(key)
        if chunk is None:
            chunk = self._build_chunk(first, L)  # may raise: nothing kept
            with self._lock:
                chunk = self._chunks.setdefault(key, chunk)
                while len(self._chunks) > _CHUNK_SHAPES:
                    del self._chunks[next(iter(self._chunks))]
                    self._element_bytes = sum(
                        place.held
                        for kept in self._chunks.values()
                        for place in kept.places
                    )
        return chunk

    def _build_chunk(self, first: int, L: int) -> "_Chunk":
        grid = len(self._grid)
        pts = self._grid[np.arange(first, first + L) % grid]
        lane_vals = {
            v: _frozen(np.ascontiguousarray(pts[:, d]))
            for d, v in enumerate(self.module.grid_vars())
        }
        lanes = _frozen(np.arange(L))
        items = [
            (max(0, i * grid - first), min(L, (i + 1) * grid - first))
            for i in range((first + L - 1) // grid + 1)
        ]
        ctx = _Ctx({}, lane_vals, L, lanes)
        places = [
            _Placement(L, spec, [f(ctx) for f in base_fns])
            for spec, base_fns, _ in self._transfers
        ]
        return _Chunk(lane_vals, lanes, items, places)

    def check_invariants(self, lanes: Optional[range] = None) -> List[str]:
        """Audit the resident chunk geometry against a fresh build.

        Every chunk shape in the table — or, given ``lanes``, every one
        :meth:`run_points` would serve that range from — is built again
        from the program and compared field for field, arrays bitwise,
        memoised indices included.  Returns one line per difference,
        naming the transfer and the chunk shape; ``[]`` is a clean
        table.  ``REPRO_SIM_MODE=verify`` runs it before every call.
        """
        if lanes is None:
            keys = list(self._chunks)
        else:
            grid = len(self._grid)
            keys = [(lo % grid, hi - lo) for lo, hi in self._cuts(lanes)]
        problems: List[str] = []
        for key in keys:
            kept = self._chunks.get(key)
            if kept is None:
                continue
            fresh = self._build_chunk(*key)
            where = f"chunk shape (first grid point {key[0]}, {key[1]} lanes)"
            for what in kept.differences(fresh):
                problems.append(f"{self.module.name}: {what} of {where}")
        return problems

    # -- transfers ----------------------------------------------------------
    @staticmethod
    def _tensor_runs(runs, buffer):
        """``runs`` as (host tensor, first lane, end lane), neighbouring
        items that bind the same array object merged into one run."""
        merged: List[list] = []
        for state, a, b in runs:
            arr = state[buffer]
            if merged and merged[-1][0] is arr:
                merged[-1][2] = b
            else:
                merged.append([arr, a, b])
        return merged

    def _elements(self, place: "_Placement", kind: str, a: int, b: int):
        """``place``'s checked form for its partial lanes in ``a:b`` —
        ``kind`` is ``"gather"`` (H2D) or ``"scatter"`` (D2H), the
        :class:`_Placement` method that builds it — kept with the
        placement while the plan's byte budget lasts."""
        key = (kind, a, b)
        hit = place.elements_of.get(key)
        if hit is None:
            hit, nbytes = getattr(place, kind)(a, b)
            with self._lock:
                if (
                    self._element_bytes + nbytes <= _ELEMENT_BYTES
                    and key not in place.elements_of
                ):
                    place.elements_of[key] = hit
                    place.held += nbytes
                    self._element_bytes += nbytes
        return hit

    def _fill(self, runs, spec, place, shape, dtype) -> np.ndarray:
        """Every lane's H2D tile, zero-padded where it leaves the tensor."""
        if place.empty:
            return np.zeros(shape, dtype)
        sources = self._tensor_runs(runs, spec.global_buffer)
        if place.all_partial:
            tile = np.zeros(shape, dtype)
        elif place.full and len(sources) == 1:
            # The block gather *is* the tile: no zero fill, no copy.
            tile = np.ascontiguousarray(
                place.windows(sources[0][0])[place.index(0, shape[0])]
            )
        else:
            tile = np.zeros(shape, dtype)
            for src, a, b in sources:
                tile[(slice(a, b),) + place.box] = place.windows(src)[
                    place.index(a, b)
                ]
        if place.partial is not None:
            # Lanes on a tensor edge were gathered from a window pulled
            # inside it; redo their rows element by element.
            for src, a, b in sources:
                lanes, idxs, valid = self._elements(place, "gather", a, b)
                if len(lanes):
                    tile[lanes] = np.where(valid, src[idxs], 0)
        return tile

    def _writeback(self, runs, spec, place, tile) -> None:
        """D2H: every lane's tile back onto its tensor, in lane order —
        tiles may overlap (``va``'s 544-wide tiles sit 512 apart) and the
        scalar path's last writer must stay the last writer."""
        if place.empty:
            return
        for dst, a, b in self._tensor_runs(runs, spec.global_buffer):
            for x, y, partial in place.spans(a, b):
                if not partial:
                    place.windows(dst, writeable=True)[place.index(x, y)] = (
                        tile[(slice(x, y),) + place.box]
                    )
                    continue
                idxs, valid = self._elements(place, "scatter", x, y)
                dst[idxs] = tile[x:y][valid]


#: Chunk shapes a plan keeps geometry for (oldest dropped first): one per
#: batch size a program is called at, two when a job boundary cuts it.
_CHUNK_SHAPES = 32

#: Bytes of boundary-lane element indices a plan keeps across all its
#: chunk shapes; past it they are rebuilt per call, as they always were.
#: The benchmark's programs hold under 100 KB each (a trimmed ``va``:
#: 8 edge lanes x 544 elements).
_ELEMENT_BYTES = 1024 * 1024


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, read-only: resident arrays are shared by every call."""
    arr.flags.writeable = False
    return arr


def _same(a, b) -> bool:
    """Field equality for the audit: arrays bitwise (dtype and shape
    too), containers element by element, anything else by ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_same(v, b[k]) for k, v in a.items())
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


class _Chunk:
    """What a chunk's shape — the grid point of its first lane and its
    lane count — fixes for every call: each lane's grid coordinates, the
    lane ranges of the items it spans, and one :class:`_Placement` per
    transfer."""

    __slots__ = ("lane_vals", "lanes", "items", "places")

    def __init__(self, lane_vals, lanes, items, places) -> None:
        self.lane_vals = lane_vals  # Var -> (L,) int64
        self.lanes = lanes  # arange(L)
        self.items = items  # [(first lane, end lane)] per item spanned
        self.places = places  # in ``module.transfers`` order

    def differences(self, fresh: "_Chunk") -> List[str]:
        """What of this (resident) chunk is not as in ``fresh``."""
        out = [
            what
            for what, field in (
                ("lane coordinates", "lane_vals"),
                ("lane numbers", "lanes"),
                ("item ranges", "items"),
            )
            if not _same(getattr(self, field), getattr(fresh, field))
        ]
        for kept, new in zip(self.places, fresh.places):
            spec = kept.spec
            name = f"{spec.direction} transfer of {spec.global_buffer.name}"
            out += [f"{what} of the {name}" for what in kept.differences(new)]
        return out


class _Placement:
    """Where the lanes of a chunk put one transfer's tile on its tensor.

    The lowering makes a tile origin affine in the grid, so per tensor
    dimension it is either one number for the whole chunk or an ``(L,)``
    array.  A dimension of the first kind is cut once, for every lane,
    to the part of the tile that lies on the tensor (``box``; a padded
    tile such as 16 columns over a 12-column tensor is still one block).
    A dimension of the second kind is tested per *lane*, on the origin:
    a lane whose tile fits (``0 <= origin <= dim - extent``) is *whole*
    and moves as a block — one window of the tensor, no index, no mask —
    and only the rest (``partial``: the lanes on a tensor edge) take the
    checked path, element by element.

    A placement is a function of the program and the chunk shape alone,
    and lives as long as its :class:`_Chunk`; what it works out on the
    way — window shapes, lane-range indices, spans, the edge lanes'
    element indices — it keeps.  A call brings the arrays.
    """

    __slots__ = (
        "spec", "bases", "origin", "box", "extent", "partial", "tile",
        "empty", "full", "window_shapes", "indices", "cuts", "elements_of",
        "held", "_all_partial",
    )

    def __init__(self, L: int, spec: TransferSpec, bases) -> None:
        self.spec, self.bases = spec, bases
        origin, lo, hi = [], [], []
        partial = None  # (L,) bool once some lane is off an edge
        for b, ext, dim in zip(bases, spec.shape, spec.global_buffer.shape):
            if isinstance(b, np.ndarray):
                if ext > dim:  # no window of this extent exists
                    moved = np.ones(L, bool)
                else:
                    b, moved = _clamp(b, dim - ext + 1)
                if moved is not None:
                    partial = moved if partial is None else partial | moved
                lo.append(0)
                hi.append(ext)
            else:
                b = int(b)
                lo.append(min(max(-b, 0), ext))
                hi.append(max(min(ext, dim - b), lo[-1]))
                b += lo[-1]
            origin.append(b)
        if not any(isinstance(o, np.ndarray) for o in origin):
            origin[0] = np.full(L, origin[0])  # gathers need a lane axis
        for arr in (*bases, *origin, partial):
            if isinstance(arr, np.ndarray):
                _frozen(arr)
        #: Window origin on the tensor per dimension; an edge lane's is
        #: pulled inside, so that one gather may cover the whole chunk.
        self.origin = origin
        self.box = tuple(slice(l, h) for l, h in zip(lo, hi))
        self.extent = tuple(h - l for l, h in zip(lo, hi))
        self.partial = partial
        self._all_partial: Optional[bool] = None
        self.tile = tuple(spec.shape)
        #: No lane's tile touches the tensor at all.
        self.empty = 0 in self.extent
        self.full = self.extent == self.tile
        self.window_shapes: Dict[tuple, tuple] = {}  # tensor shape -> view's
        self.indices: Dict[Tuple[int, int], tuple] = {}
        self.cuts: Dict[Tuple[int, int], list] = {}
        #: ``(a, b, scatter)`` -> checked form; filled by the plan, which
        #: counts ``held`` bytes against its budget.
        self.elements_of: Dict[tuple, tuple] = {}
        self.held = 0

    @property
    def all_partial(self) -> bool:
        """Every lane is on a tensor edge: there is no block to move."""
        if self._all_partial is None:
            self._all_partial = self.partial is not None and bool(
                self.partial.all()
            )
        return self._all_partial

    def window_shape(self, tensor: tuple) -> tuple:
        """Shape of :meth:`windows` over an array of shape ``tensor``."""
        shape = self.window_shapes.get(tensor)
        if shape is None:
            free = tuple(d - e + 1 for d, e in zip(tensor, self.extent))
            shape = self.window_shapes[tensor] = free + self.extent
        return shape

    def windows(self, arr: np.ndarray, writeable: bool = False):
        """Every placement of the box on ``arr``, as a view indexed by
        origin: shape ``(dim - extent + 1, ...) + extent``.  The shape
        is the tensor shape's; the strides are this array's."""
        return as_strided(
            arr,
            self.window_shape(arr.shape),
            arr.strides * 2,
            writeable=writeable,
        )

    def index(self, a: int, b: int) -> tuple:
        """The window of each of lanes ``a:b``."""
        at = self.indices.get((a, b))
        if at is None:
            at = self.indices[a, b] = tuple(
                o[a:b] if isinstance(o, np.ndarray) else o
                for o in self.origin
            )
        return at

    def spans(self, a: int, b: int) -> list:
        """Lanes ``a:b`` cut where they turn from whole to partial or
        back: ``(first lane, end lane, partial)`` in lane order."""
        if self.partial is None:
            return [(a, b, False)]
        out = self.cuts.get((a, b))
        if out is None:
            part = self.partial[a:b]
            flips = (np.flatnonzero(part[1:] != part[:-1]) + a + 1).tolist()
            edges = [a, *flips, b]
            out = self.cuts[a, b] = [
                (x, y, bool(self.partial[x])) for x, y in zip(edges, edges[1:])
            ]
        return out

    def elements(self, lanes: np.ndarray):
        """The checked form, for ``lanes`` only: per-dimension tensor
        index of every tile element (clamped), each broadcast to
        ``(len(lanes),) + tile shape``, which elements are on the
        tensor, and the bytes under those broadcasts."""
        spec = self.spec
        nd = len(spec.shape)
        shape = (len(lanes),) + tuple(spec.shape)
        idxs, valid, nbytes = [], np.True_, 0
        for d, (b, ext, dim) in enumerate(
            zip(self.bases, spec.shape, spec.global_buffer.shape)
        ):
            k = np.arange(ext).reshape(
                (1,) * (d + 1) + (ext,) + (1,) * (nd - d - 1)
            )
            if isinstance(b, np.ndarray):
                b = b[lanes].reshape((-1,) + (1,) * nd)
            i, moved = _clamp(b + k, dim)
            if moved is not None:
                valid = valid & ~moved
            nbytes += i.nbytes
            idxs.append(np.broadcast_to(i, shape))
        nbytes += np.asarray(valid).nbytes
        return tuple(idxs), np.broadcast_to(valid, shape), nbytes

    def gather(self, a: int, b: int):
        """H2D: ``(lanes, index, valid)`` of the partial lanes in
        ``a:b`` — ``where(valid, tensor[index], 0)`` is their tiles —
        and the bytes it holds."""
        lanes = np.flatnonzero(self.partial[a:b]) + a
        idxs, valid, nbytes = self.elements(lanes)
        return (lanes, idxs, valid), nbytes + lanes.nbytes

    def scatter(self, a: int, b: int):
        """D2H: ``(index, valid)`` of lanes ``a:b``, all partial —
        ``tensor[index] = tile[a:b][valid]`` — and the bytes it holds."""
        idxs, valid, _ = self.elements(np.arange(a, b))
        idxs = tuple(i[valid] for i in idxs)
        valid = np.ascontiguousarray(valid)
        return (idxs, valid), sum(i.nbytes for i in idxs) + valid.nbytes

    #: What the audit compares: the placement and everything it keeps.
    AUDITED = (
        "origin", "box", "extent", "partial", "tile", "empty", "full",
        "window_shapes", "indices", "cuts", "elements_of",
    )

    def differences(self, fresh: "_Placement") -> List[str]:
        """Fields in which this (resident) placement is not ``fresh``,
        once ``fresh`` has worked out everything this one keeps."""
        for tensor in list(self.window_shapes):
            fresh.window_shape(tensor)
        for a, b in list(self.indices):
            fresh.index(a, b)
        for a, b in list(self.cuts):
            fresh.spans(a, b)
        for key in list(self.elements_of):
            kind, a, b = key
            fresh.elements_of[key], _ = getattr(fresh, kind)(a, b)
        return [
            field
            for field in self.AUDITED
            if not _same(getattr(self, field), getattr(fresh, field))
        ]


# ---------------------------------------------------------------------------
# host statement programs
# ---------------------------------------------------------------------------


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

    allow_shared_store = True
    batched: frozenset = frozenset()

    def __init__(self, stmt: Stmt) -> None:
        self.fallbacks: List[Stmt] = []
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
        self.fallbacks = [s for plan in self.plans for s in plan.fallbacks]

    def run(self, arrays: Dict[Buffer, np.ndarray]) -> None:
        for plan in self.plans:
            plan.run(arrays)


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------

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
