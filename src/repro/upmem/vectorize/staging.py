"""Kernel normalisation, TIR -> TIR: read through WRAM staging and fold
the block loop, before the plan compiles the kernel.

Every kernel the sketches emit stages its operands (``cache_read`` +
``compute_at``, then DMA-aware lowering)::

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
order, so ``ops._fold`` stays the only summation.  The folded scan is
cut into slabs that carry the accumulator (``ops._VecReduceOp``,
``ops._SCAN_BYTES``), so its workspace does not grow with the row.
There is no option and no second path: a kernel that does not match
compiles exactly as lowered (the element-copy loops of O0-O2 are not
bursts), and the module keeps the lowered kernel — the scalar
interpreter, hence ``REPRO_SIM_MODE=verify``, checks the rewrite against
the original.

:func:`_reduction`, the shape of a fold, lives here: the statement
compiler scans what it matches, and the block fold merges its loops.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

from ...lowering import LoweredModule
from ...tir import (
    Add, Buffer, BufferLoad, BufferStore, DmaCopy, ExprMutator, For, IntImm,
    Interval, PrimExpr, SeqStmt, Stmt, StmtMutator, StmtVisitor, Var,
    affine_coeffs, collect_loads, eval_interval, free_vars, is_const_int,
    simplify, substitute,
)


def _same_index(a: PrimExpr, b: PrimExpr) -> bool:
    """Whether two indices are the same node or equal immediates: the
    lowering builds ``T[i] = T[i] + ...`` from one index list."""
    return a is b or (
        isinstance(a, IntImm) and isinstance(b, IntImm) and a.value == b.value
    )


def _loads_buffer(expr: PrimExpr, buffer: Buffer) -> bool:
    return any(ld.buffer is buffer for ld in collect_loads(expr))


def _reduction(body: Stmt, loop_vars: Sequence[Var]) -> Optional[PrimExpr]:
    """The summand of ``T[i] = T[i] + rest`` (either operand order) if
    ``body`` is that store, ``i`` uses none of ``loop_vars`` and ``rest``
    does not read ``T``; else None.  (A summand of another dtype than
    ``T`` is scanned step by step: ``ops._VecReduceOp``.)"""
    if not isinstance(body, BufferStore) or not isinstance(body.value, Add):
        return None
    target, idx, val = body.buffer, body.indices, body.value
    if any(v in free_vars(i) for i in idx for v in loop_vars):
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
                if any(node.var in free_vars(b) for b in dma.src_base):
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
            if outer in free_vars(i) or inner in free_vars(i):
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
