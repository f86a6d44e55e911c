"""The statement ops and their compiler: a kernel as a tree of ops that
each run every lane of a chunk at once.

:class:`_StmtCompiler` compiles every statement kind of
:mod:`repro.tir`: ``SeqStmt``, ``For``, ``IfThenElse`` (the §5.3
boundary checks), ``BufferStore``, ``DmaCopy`` and ``Barrier`` (a no-op:
tasklets run serially).  Inner ``For`` loops over affine buffer indices
are further vectorized across the loop axis — a strict left fold for
reductions (:class:`_VecReduceOp`), an injective scatter for maps
(:class:`_VecMapOp`) — and ``DmaCopy`` becomes a flat slice copy over
all lanes at once.

Tasklet loops are executed as ordinary serial loops over batched lanes:
tasklets on one DPU may legally overlap in their padded DMA writebacks,
so their relative order is preserved exactly as the scalar interpreter
runs them.

Reductions are the same left fold as the scalar loop, vectorised across
lanes (:func:`_fold`): the scan buffer is copied transposed, so the fold
runs down its slow axis, where ``np.add.reduce`` adds one row of all
lanes at a time, in order.  Along the fast axis NumPy sums pairwise,
which would *not* be bit-identical (``np.sum``/``einsum`` are avoided
for that reason), so a one-lane fold, whose column *is* the fast axis,
keeps the strictly sequential ``np.add.accumulate``.  The reduce is told
to start from -0.0, not its default +0.0, which would turn a lane of all
-0.0 terms into +0.0; and its rows are padded to whole SIMD registers so
NaN + NaN keeps the accumulator's NaN, as ``np.add.accumulate`` does
(:data:`_FOLD_ALIGN` says where the scalar path's NaN differs).
``TestAccumulateContract`` pins each of these NumPy behaviours.  A
``max`` fold (a softmax epilogue's row max) is ``np.maximum.accumulate``
along each row (:func:`_fold_max`): the ``np.maximum(acc, x)`` steps a
lane loop takes, so it differs from the scalar interpreter's built-in
``max`` only where a summand is NaN or ties the accumulator with the
other signed zero, as every vector ``max`` does.
"""

from __future__ import annotations

import numpy as np

from ...tir import (
    Add, Barrier, BufferStore, DmaCopy, For, IfThenElse, IntImm, Max, Mul,
    SeqStmt, Stmt, Sub, free_vars,
)
from .expr import (
    VectorizeError, _affine_coeff, _axis_slice, _checked, _clamp,
    _ExprCompiler, _immediates,
)
from .staging import _loads_buffer, _reduction


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
        # Shared buffer: a host program's.  A lane loop's stores index its
        # lanes (``_lane_safe``), so a basic index is a lone statement's
        # (one lane, no mask) or holds a lane slice: a view of the lanes.
        if scalar_idx:
            if ctx.mask is None:
                arr[full] = val
            else:
                np.copyto(arr[full], val, where=ctx.mask, casting="unsafe")
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
    lowering emits DMA in kernels only, and a kernel plan has checked
    both ends."""

    def __init__(self, plan, stmt: DmaCopy, ec: "_ExprCompiler"):
        self.dst, self.src = stmt.dst, stmt.src
        if not {stmt.dst, stmt.src} <= plan.batched:
            raise VectorizeError("DmaCopy in a host program")
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


def _fold_max(w: np.ndarray, rows, stops=None) -> np.ndarray:
    """:func:`_fold` for a ``max`` fold (a softmax epilogue's row max):
    ``np.maximum.accumulate`` along each row of ``w`` — the loop's
    step-by-step ``np.maximum(acc, x)`` — read at column ``stops[lane]``
    (the last when None)."""
    acc = np.maximum.accumulate(w, axis=1)
    return acc[:, -1] if stops is None else acc[np.arange(len(w)), stops]


#: The fold of each combiner :class:`_VecReduceOp` scans.
_FOLDS = {Add: _fold, Max: _fold_max}


class _VecReduceOp:
    """``for k in extent: T[i] = T[i] + rest(k)`` as one sequential scan
    (or ``max`` in place of ``+``: a host epilogue's row max).

    Each slab's scan buffer (the accumulator, then the summands) goes to
    :func:`_fold`, a strict left fold, so the partial sums match the
    scalar loop bit for bit.  A long axis is scanned in slabs of at most
    :data:`_SCAN_BYTES` that carry the accumulator from one to the next
    — the same fold, cut anywhere.  Lane-dependent extents stop each
    lane at its own trip count.  Under a lane mask every
    lane is scanned (``_checked`` clamps a masked lane's index instead of
    raising) and only the live lanes are written back.  Runs the
    generic loop instead when the summand's dtype is not the accumulator's.

    ``rest`` is ``(ufunc, operands)``: for ``a * b`` (``+``, ``-``) at the
    top of the summand ``operands(ctx)`` is the pair and the ufunc writes
    their product straight into the chunk's scan buffer; anything else is
    ``(None, fn)`` and ``(fn(ctx),)`` is copied there.
    """

    def __init__(self, plan, target, at, efn, edep, rest, generic, fold=_fold):
        self.fold = fold
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
                acc = self.fold(
                    w, rows,
                    None if trips is None else np.clip(trips - lo, 0, width),
                )
        finally:
            ctx.axis_k, ctx.vmask = old_k, old_v
        if acc is None:
            self.generic.run(ctx)
        elif mask is None:
            # One lane's accumulator is one element (a lone host
            # statement's, or the single lane's of a view).
            arr[windex] = acc[0] if ctx.L == 1 else acc
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


class _StmtCompiler:
    def __init__(self, plan):
        self.plan = plan
        self.expr = _ExprCompiler(plan)

    def compile(self, stmt: Stmt):
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
        return self._generic_for(stmt, efn, edep)

    def _generic_for(self, stmt: For, efn, edep):
        return _ForOp(stmt.var, efn, edep, self.compile(stmt.body))

    def _try_reduce(self, stmt: For, efn, edep):
        var = stmt.var
        rest = _reduction(stmt.body, (var,), tuple(_FOLDS))
        if rest is None:
            return None
        fold = _FOLDS[type(stmt.body.value)]
        target, idx = stmt.body.buffer, stmt.body.indices
        ax = _ExprCompiler(self.plan, axis_var=var)
        ufunc = _SCAN_UFUNCS.get(type(rest)) if fold is _fold else None
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
            self.plan, target, at, efn, edep, (ufunc, operands), generic, fold
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
        carriers = [i for i in store.indices if var in free_vars(i)]
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
