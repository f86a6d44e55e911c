"""The expression compiler: a PrimExpr as a closure over one lane chunk.

Every value an op tree computes comes from :class:`_ExprCompiler`, which
keeps the scalar interpreter's semantics bit for bit: float arithmetic
batches elementwise ops whose operand/result dtypes match the scalar
path exactly (NEP 50 makes ``np.float32`` scalars and float32 arrays
behave identically against Python scalars).

Weak numbers: the interpreter binds variables to Python ints, and a
Python number beside a NumPy value takes that value's dtype (NEP 50).
Batched, those numbers are int64/float64 *arrays*;
:meth:`_ExprCompiler.operands` casts one to the dtype its Python number
would take before it meets a buffer's dtype (:func:`_weak`, :func:`_meet`).

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
  lie inside the buffer; and **per chunk shape** (``plan._Placement``),
  for H2D/D2H tiles — whose origins are affine in the grid — which
  *lanes* hold a tile that fits its tensor (one ``(L,)`` comparison per
  dimension).  Those lanes move as one window gather or scatter;
* **still checked**: the lanes of a chunk whose tile crosses a tensor edge
  (the last DPUs of a trimmed ``va``), an access whose endpoint falls
  outside (so an out-of-range access raises exactly as the scalar path
  does instead of being clamped), and any lane-dependent index.

A block-form load is a *view* of its buffer.  Nothing holds one across a
store: a vectorised map never loads the buffer it stores to
(``_try_map``), a reduction's summand never loads its accumulator, and
NumPy buffers a single assignment whose source overlaps its destination.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...tir import (
    EQ, GE, GT, LE, LT, NE, Add, And, BinaryOp, Buffer, BufferLoad, CmpOp,
    Div, Exp, FloatImm, FloorDiv, FloorMod, IntImm, Max, Min, Mul, PrimExpr,
    Select, Sub, Tanh, Var, collect_loads, free_vars,
)
from ..interp import _NP_DTYPES, InterpError


class VectorizeError(Exception):
    """A kernel outside the vector model: it loads, stores or DMAs a host
    tensor, which a DPU cannot address and no lowering emits.  Raised
    when the plan is built; ``REPRO_SIM_MODE=scalar`` still runs it."""


# Dependence flags of a compiled expression: which batch axes its runtime
# value varies along.  0 means a plain Python/numpy scalar.
LANE = 1  # varies per lane (grid point / host lane-loop iteration)
AXIS = 2  # varies along the vectorized inner-loop axis


def _affine_coeff(expr: PrimExpr, var: Var) -> Optional[int]:
    """Constant integer coefficient of ``var`` in ``expr`` (None: non-affine)."""
    if expr is var:
        return 1
    if var not in free_vars(expr):
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
        if ka is None or kb is None:
            return None
        return 0.0 if isinstance(e, Div) else ka + kb  # int / int is a float
    return None  # a load, a comparison, or an intrinsic's NumPy value


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
        if type(e) in _UNARY:
            return self._unary(e)
        if type(e) is Select:
            return self._select(e)
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

    def _unary(self, e) -> Tuple[Callable, int]:
        a, dep = self.compile(e.a)
        ufunc = _UNARY[type(e)]
        return (lambda ctx: ufunc(a(ctx))), dep

    def _select(self, e: Select) -> Tuple[Callable, int]:
        """Both arms batched and picked by ``np.where`` (so both must
        read in bounds), the result cast to the select's dtype as the
        interpreter casts the taken arm; unbatched, only the taken arm
        runs."""
        (c, dc), (t, dt), (f, df) = map(self.compile, e.children())
        dtype = _NP_DTYPES[e.dtype]
        dep = dc | dt | df
        if dep == 0:
            return (lambda ctx: dtype(t(ctx) if c(ctx) else f(ctx))), 0

        def fn(ctx):
            return np.where(c(ctx), t(ctx), f(ctx)).astype(dtype, copy=False)

        return fn, dep

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

    def lane_values(self, e: PrimExpr) -> Optional[np.ndarray]:
        """``e`` in every lane, ``(L,)``, when the plan fixes its lanes
        (a host program's loop nest: ``plan.fixed_lanes``) and ``e``
        reads nothing but their variables and constants; else None."""
        lanes = self.plan.fixed_lanes
        names = free_vars(e)
        if (
            lanes is None
            or not names
            or not self.plan.lane_vars.issuperset(names)
            or collect_loads(e)
        ):
            return None
        fn, _ = _ExprCompiler(self.plan).compile(e)
        return np.broadcast_to(fn(lanes), (lanes.L,))

    def lane_slice(self, e: PrimExpr, dim: int) -> Optional[slice]:
        """Index ``e`` as the basic slice it is over a host program's
        lanes — its :meth:`lane_values` an arithmetic progression with a
        nonzero step, both ends inside ``[0, dim)`` — proved when the
        plan is built; None for any other index."""
        v = self.lane_values(e)
        if v is None:
            return None
        step = int(v[1] - v[0]) if len(v) > 1 else 1
        if step == 0 or not np.array_equal(v, v[0] + step * np.arange(len(v))):
            return None
        return _axis_slice(v, step, dim)

    def lane_index(self, e: PrimExpr, dim: int) -> Optional[np.ndarray]:
        """Index ``e`` over a host program's lanes as the ``(L,)`` array
        of its :meth:`lane_values`, when every one lies inside
        ``[0, dim)`` — proved when the plan is built, so no call tests
        it — else None."""
        v = self.lane_values(e)
        if v is None or v.min() < 0 or v.max() >= dim:
            return None
        return v

    def checked_at(self, buffer: Buffer, exprs: Sequence[PrimExpr], fns=None):
        """``fn(ctx) -> tuple`` of an access's indices as ``_checked``
        passes them, the proved immediates (:func:`_immediates`), lane
        slices (:meth:`lane_slice`) and lane indices
        (:meth:`lane_index`) as constants: an access with nothing else
        is one resident tuple (:meth:`lane_constants`).  A lane slice
        needs every other index lane-invariant, as :meth:`_lane_view`'s
        loads do: a slice beside an ``(L,)`` index would address their
        outer product.  ``fns`` are the compiled ``exprs``, if the
        caller has them."""
        steps = self._steps(buffer, exprs, fns)
        if all(f is None for f, _ in steps):
            const = tuple(v for _, v in steps)
            return lambda ctx: const
        return lambda ctx: tuple(
            v if f is None else _checked(ctx, buffer, v, f(ctx))
            for f, v in steps
        )

    def lane_constants(self, buffer: Buffer, exprs: Sequence[PrimExpr], fns=None):
        """The index tuple of an access whose every index
        :meth:`checked_at` proves when the plan is built (a host
        program's lane slices and lane indices, immediates); else None."""
        steps = self._steps(buffer, exprs, fns)
        if any(f is not None for f, _ in steps):
            return None
        return tuple(v for _, v in steps)

    def _steps(self, buffer: Buffer, exprs: Sequence[PrimExpr], fns):
        """Per index, ``(None, constant)`` where it is proved when the
        plan is built, else ``(fn, dimension)``."""
        compiled = [self.compile(e) for e in exprs]
        if fns is None:
            fns = [f for f, _ in compiled]
        sliceable = sum(bool(dep & LANE) for _, dep in compiled) == 1
        steps = []
        for d, (e, f, proved) in enumerate(
            zip(exprs, fns, _immediates(buffer, exprs))
        ):
            if proved:
                steps.append((None, e.value))
                continue
            dim = buffer.shape[d]
            sl = self.lane_slice(e, dim) if sliceable else None
            if sl is None:
                sl = self.lane_index(e, dim)
            steps.append((f, d) if sl is None else (None, sl))
        return steps

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

        def test(ctx, idx, skip=()):
            for d in tested:
                if d not in skip:
                    idx[d] = _checked(ctx, buffer, d, idx[d])
            return tuple(idx)

        def checked(ctx, arr, idx):
            full = test(ctx, idx)  # some index is an array: idx_dep != 0
            if not batched:
                return arr[full]
            rows = ctx.lanes[:, None] if axis_mode else ctx.lanes
            return arr[(rows,) + full]

        def slow(ctx):
            return checked(ctx, ctx.bufs[buffer], [f(ctx) for f in fns])

        at = None if batched else self.lane_constants(buffer, e.indices, fns)
        if at is not None:
            # A host buffer read at its lanes' own indices: a view through
            # a lane slice, a gather through lane indices (a 2-D nest, a
            # row value broadcast along it).

            def fn(ctx):
                v = ctx.bufs[buffer][at]
                return v[:, None] if axis_mode else v

            return fn, dep
        view = self._lane_view(buffer, e.indices, fns, deps, test, slow)
        if view is not None:
            return view, dep
        if axis_at is None:
            return slow, dep

        dim = buffer.shape[axis_at]

        def fn(ctx):
            arr = ctx.bufs[buffer]
            idx = [f(ctx) for f in fns]
            sl = _axis_slice(idx[axis_at], coeff, dim)
            if sl is None:
                return checked(ctx, arr, idx)
            idx[axis_at] = sl
            # A view: (L, n) of a batched buffer, (n,) of a shared one.
            return arr[lead + test(ctx, idx, skip=(axis_at,))]

        return fn, dep

    def _lane_view(self, buffer, exprs, fns, deps, test, slow):
        """A shared buffer's load whose one lane-dependent index is a
        lane slice (:meth:`lane_slice`), the others scalar or at most
        one axis-affine, as ``fn(ctx)`` returning a view — ``(L,)``,
        ``(L, 1)`` in axis mode, ``(L, n)`` with the axis index — or
        None for any other load.  ``slow`` is the checked form, for an
        axis index whose ends fall outside the buffer."""
        lane_dims = [d for d, dep in enumerate(deps) if dep & LANE]
        axes = [d for d, dep in enumerate(deps) if dep == AXIS]
        if (
            len(lane_dims) != 1
            or deps[lane_dims[0]] != LANE
            or len(axes) > 1
            or buffer in self.plan.batched
        ):
            return None
        at = lane_dims[0]
        lanes = self.lane_slice(exprs[at], buffer.shape[at])
        ax = axes[0] if axes else None
        coeff = None if ax is None else _affine_coeff(exprs[ax], self.axis_var)
        if lanes is None or (ax is not None and not coeff):
            return None
        column = self.axis_var is not None and ax is None
        flip = ax is not None and ax < at  # the buffer's order: (n, L)
        # The other indices are scalar: compiled, then tested per call.
        rest = [(d, fns[d]) for d in range(len(fns)) if d not in (at, ax)]
        template = [lanes] * len(fns)
        dim = None if ax is None else buffer.shape[ax]
        axis_fn = None if ax is None else fns[ax]

        def fn(ctx):
            idx = template.copy()
            for d, f in rest:
                idx[d] = f(ctx)
            if ax is not None:
                sl = _axis_slice(axis_fn(ctx), coeff, dim)
                if sl is None:
                    return slow(ctx)
                idx[ax] = sl
            v = ctx.bufs[buffer][test(ctx, idx, (at, ax))]
            return v[:, None] if column else v.T if flip else v

        return fn


#: The binary operators the compiler takes, as their Python operators.
_BINOPS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    FloorDiv: operator.floordiv,
    FloorMod: operator.mod,
    LT: operator.lt,
    LE: operator.le,
    GT: operator.gt,
    GE: operator.ge,
    EQ: operator.eq,
    NE: operator.ne,
}

#: The intrinsics, as the ufuncs the scalar interpreter calls.
_UNARY = {Exp: np.exp, Tanh: np.tanh}
