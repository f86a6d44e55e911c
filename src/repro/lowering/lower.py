"""Lowering: scheduled stages → loop-based TIR → host/kernel split.

This implements paper §5.2.2:

* loop-nest construction from the schedule's leaf iteration variables,
* boundary-check insertion for imperfect tiles,
* WRAM cache / accumulator materialization with address calculation,
* per-DPU MRAM tile extraction and transfer generation,
* hierarchical reduction (``rfactor`` stages become kernel partials plus a
  host final reduction).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..schedule import Schedule, Stage, reconstruct_roots
from ..te import ComputeOp, IterVar
from ..te.operation import identity_value
from ..tir import (
    Add,
    Barrier,
    Buffer,
    BufferLoad,
    BufferStore,
    For,
    ForKind,
    IfThenElse,
    Interval,
    IntImm,
    Max,
    Min,
    PrimExpr,
    SeqStmt,
    Stmt,
    Sub,
    Var,
    all_of,
    collect_loads,
    eval_interval,
    iter_stmts,
    prove_lt,
    seq,
    simplify,
    simplify_stmt,
    substitute,
    substitute_stmt,
)
from ..tir.visitor import StmtMutator
from .bounds import BoundsError, infer_region
from .module import GridDim, LoweredModule, LowerOptions, TransferSpec

__all__ = ["lower", "LoweringError"]


class LoweringError(ValueError):
    """The schedule cannot be lowered to a UPMEM program."""


_COMBINE = {"add": Add, "max": Max, "min": Min}


def lower(
    schedule: Schedule,
    name: str = "main",
    options: Optional[LowerOptions] = None,
) -> LoweredModule:
    """Lower a schedule into a :class:`LoweredModule`."""
    options = options or LowerOptions()

    kernel_builders: List[_StageBuilder] = []
    host_pre: List[Stmt] = []
    host_post: List[Stmt] = []
    host_parallel = 1
    seen_kernel = False
    inputs: List[Buffer] = []
    compute_buffers: List[Buffer] = []

    for stage in schedule.stages:
        if stage.kind == "placeholder":
            if stage.cache_source is None and stage.writeback_of is None:
                inputs.append(stage.op.output().buffer)
            continue
        if stage.kind != "compute":
            continue
        builder = _StageBuilder(schedule, stage, options)
        compute_buffers.append(stage.op.tensor.buffer)
        if builder.is_kernel:
            kernel_builders.append(builder)
            seen_kernel = True
        else:
            stmt = builder.build()
            if builder.wram_buffers:
                raise LoweringError(
                    f"host stage {stage.name!r} cannot allocate WRAM caches"
                )
            host_parallel = max(host_parallel, builder.host_parallel)
            (host_post if seen_kernel else host_pre).append(stmt)

    if not kernel_builders:
        raise LoweringError(
            "no stage is bound to a DPU grid (missing blockIdx bind)"
        )

    grid, kernel_body, wram_buffers, per_tasklet, n_tasklets = _assemble_kernel(
        kernel_builders
    )

    kernel_body, transfers, internal_mram = _extract_mram(
        kernel_body, grid, inputs, schedule
    )
    simplified = simplify_stmt(kernel_body)
    if simplified is None:
        raise LoweringError("kernel simplified to nothing")
    kernel_body = simplified
    host_pre = [s for s in map(simplify_stmt, host_pre) if s is not None]
    host_post = [s for s in map(simplify_stmt, host_post) if s is not None]

    outputs = [t.buffer for t in schedule.outputs]
    intermediates = [b for b in compute_buffers if b not in outputs]

    return LoweredModule(
        name=name,
        grid=grid,
        kernel=kernel_body,
        transfers=transfers,
        host_pre=host_pre,
        host_post=host_post,
        inputs=inputs,
        outputs=outputs,
        intermediates=intermediates,
        mram_internal=internal_mram,
        wram_buffers=wram_buffers,
        wram_per_tasklet=per_tasklet,
        n_tasklets=n_tasklets,
        options=options,
        host_parallel_threads=host_parallel,
    )


# ---------------------------------------------------------------------------
# per-stage nest construction
# ---------------------------------------------------------------------------


class _StageBuilder:
    """Builds the loop nest of one compute stage."""

    def __init__(self, schedule: Schedule, stage: Stage, options: LowerOptions):
        self.schedule = schedule
        self.stage = stage
        self.op: ComputeOp = stage.op
        self.options = options
        self.leaves: List[IterVar] = list(stage.leaf_iter_vars)
        self.recon = {
            var: simplify(expr)
            for var, expr in reconstruct_roots(
                stage.root_iter_vars, stage.relations
            ).items()
        }
        self.body = simplify_loads(substitute(self.op.body, self.recon))
        self.idx_s = [self.recon[ax.var] for ax in self.op.axis]
        self.wram_buffers: List[Buffer] = []
        self.wram_per_tasklet: Dict[Buffer, bool] = {}
        self._rewrites: Dict[Buffer, Tuple[Buffer, List[PrimExpr]]] = {}
        self._init_emitted = False
        self._preds_spatial, self._preds_reduce = self._boundary_predicates()
        self._cache_at: Dict[IterVar, List[Stage]] = {}
        for cache_stage in stage.cache_reads.values():
            if cache_stage.attach is None:
                raise LoweringError(
                    f"cache stage {cache_stage.name!r} needs compute_at"
                )
            consumer, ivar = cache_stage.attach
            if consumer is not stage:
                raise LoweringError(
                    f"cache stage {cache_stage.name!r} attached to a"
                    " different stage than its consumer"
                )
            self._cache_at.setdefault(ivar, []).append(cache_stage)
        self._setup_accumulator()

    # -- classification -----------------------------------------------------
    @property
    def is_kernel(self) -> bool:
        return any(tag.startswith("blockIdx") for tag in self.stage.binds.values())

    @property
    def n_tasklets(self) -> int:
        for iv, tag in self.stage.binds.items():
            if tag == "threadIdx.x":
                return iv.extent
        return 1

    @property
    def host_parallel(self) -> int:
        for iv, ann in self.stage.annotations.items():
            if ann == "parallel":
                return iv.extent
        return 1

    # -- boundary predicates --------------------------------------------------
    def _boundary_predicates(self):
        env = {iv.var: Interval(0, iv.extent - 1) for iv in self.leaves}
        spatial: List[PrimExpr] = []
        reduce_: List[PrimExpr] = []
        if not self.options.boundary_checks:
            return spatial, reduce_
        for root in self.op.axis:
            pred = self._root_pred(root, env)
            if pred is not None:
                spatial.append(pred)
        for root in self.op.reduce_axis:
            pred = self._root_pred(root, env)
            if pred is not None:
                reduce_.append(pred)
        for pred in getattr(self.op, "predicates", []):
            reduce_.append(simplify(substitute(pred, self.recon)))
        return spatial, reduce_

    def _root_pred(self, root: IterVar, env) -> Optional[PrimExpr]:
        recon_expr = self.recon[root.var]
        if recon_expr is root.var:
            return None
        rng = eval_interval(recon_expr, env)
        if rng is not None and rng.hi is not None and rng.hi < root.extent:
            return None
        return simplify(recon_expr < root.extent)

    # -- accumulator (cache_write) ---------------------------------------------
    def _setup_accumulator(self) -> None:
        self.acc_buffer: Optional[Buffer] = None
        self.acc_base: List[PrimExpr] = []
        self._wb_pos: Optional[int] = None
        stage = self.stage
        if stage.write_cache_scope is None:
            return
        wb = stage.writeback
        if wb is None or wb.attach is None:
            raise LoweringError(
                f"stage {stage.name!r} has cache_write but the writeback"
                " stage was not placed with reverse_compute_at"
            )
        consumer, ivar = wb.attach
        if consumer is not stage:
            raise LoweringError("writeback must attach inside its own stage")
        pos = self.leaves.index(ivar)
        inner = {iv.var: iv.extent for iv in self.leaves[pos + 1 :]}
        try:
            base, extents = infer_region([self.idx_s], inner)
        except BoundsError as exc:
            raise LoweringError(f"cannot size write cache: {exc}") from exc
        out = self.op.tensor.buffer
        self.acc_buffer = Buffer(
            f"{out.name}_wram", extents, out.dtype, scope="wram"
        )
        self.acc_base = base
        self._wb_pos = pos
        self._register_wram(self.acc_buffer, pos)

    def _register_wram(self, buffer: Buffer, pos: int) -> None:
        inside_thread = any(
            self.stage.binds.get(iv) == "threadIdx.x" for iv in self.leaves[: pos + 1]
        )
        self.wram_buffers.append(buffer)
        self.wram_per_tasklet[buffer] = inside_thread

    # -- emission ----------------------------------------------------------------
    def build(self) -> Stmt:
        self._init_emitted = False
        return self._emit(0)

    def _first_reduce_pos(self) -> int:
        """Leaf position of a reduction's outermost reduce axis."""
        return next(i for i, iv in enumerate(self.leaves) if iv.is_reduce)

    def _emit(self, pos: int) -> Stmt:
        if (
            self.op.is_reduction
            and not self._init_emitted
            and pos == self._first_reduce_pos()
        ):
            self._init_emitted = True
            init = self._emit_init(pos)
            rest = self._emit_loops(pos)
            return seq(init, rest)
        return self._emit_loops(pos)

    def _emit_loops(self, pos: int) -> Stmt:
        if pos == len(self.leaves):
            return self._innermost()
        iv = self.leaves[pos]
        parts: List[Stmt] = []
        registered: List[Buffer] = []
        for cache_stage in self._cache_at.get(iv, []):
            stmt, src = self._emit_cache(cache_stage, pos)
            parts.append(stmt)
            registered.append(src)
        parts.append(self._emit(pos + 1))
        if self._wb_pos is not None and pos == self._wb_pos:
            parts.append(self._emit_writeback())
        for src in registered:
            del self._rewrites[src]
        body = seq(*parts)
        return self._make_loop(iv, body)

    def _make_loop(self, iv: IterVar, body: Stmt) -> For:
        tag = self.stage.binds.get(iv)
        if tag is not None:
            return For(iv.var, iv.extent, body, ForKind.THREAD_BINDING, tag)
        ann = self.stage.annotations.get(iv)
        if ann == "unroll":
            return For(iv.var, iv.extent, body, ForKind.UNROLLED)
        if ann == "parallel":
            return For(iv.var, iv.extent, body, ForKind.PARALLEL)
        return For(iv.var, iv.extent, body, ForKind.SERIAL)

    # -- innermost statements ----------------------------------------------------
    def _acc_target(self) -> Tuple[Buffer, List[PrimExpr]]:
        if self.acc_buffer is not None:
            idx = [
                simplify(Sub(i, b)) for i, b in zip(self.idx_s, self.acc_base)
            ]
            return self.acc_buffer, idx
        return self.op.tensor.buffer, list(self.idx_s)

    def _innermost(self) -> Stmt:
        target, idx = self._acc_target()
        value = rewrite_cached_loads(self.body, self._rewrites)
        if self.op.is_reduction:
            combine = _COMBINE[self.op.combiner]
            value = combine(BufferLoad(target, idx), value)
        store: Stmt = BufferStore(target, value, idx)
        preds = list(self._preds_spatial) + list(self._preds_reduce)
        cond = all_of(preds)
        if cond is not None:
            store = IfThenElse(simplify(cond), store)
        return store

    def _emit_init(self, pos: int) -> Stmt:
        target, idx = self._acc_target()
        ident = identity_value(self.op.combiner, target.dtype)
        store: Stmt = BufferStore(target, ident, idx)
        if self.acc_buffer is None:
            cond = all_of(self._preds_spatial)
            if cond is not None:
                store = IfThenElse(simplify(cond), store)
        for iv in reversed([l for l in self.leaves[pos:] if not l.is_reduce]):
            store = For(iv.var, iv.extent, store, ForKind.SERIAL)
        return store

    # -- cache reads --------------------------------------------------------------
    def _emit_cache(self, cache_stage: Stage, pos: int) -> Tuple[Stmt, Buffer]:
        src = cache_stage.cache_source
        assert src is not None
        tuples = [
            [simplify(i) for i in ld.indices]
            for ld in collect_loads(self.body)
            if ld.buffer is src
        ]
        if not tuples:
            raise LoweringError(f"no loads of {src.name!r} to cache")
        inner = {iv.var: iv.extent for iv in self.leaves[pos + 1 :]}
        try:
            base, extents = infer_region(tuples, inner)
        except BoundsError as exc:
            raise LoweringError(
                f"cannot size cache for {src.name!r}: {exc}"
            ) from exc
        cbuf = Buffer(cache_stage.name, extents, src.dtype, scope="wram")
        self._register_wram(cbuf, pos)
        axes = [Var(f"{src.name}_c{d}") for d in range(len(extents))]
        src_idx = [simplify(Add(b, ax)) for b, ax in zip(base, axes)]
        store: Stmt = BufferStore(cbuf, BufferLoad(src, src_idx), list(axes))
        if self.options.boundary_checks:
            guards = []
            ranges = {iv.var: (0, iv.extent) for iv in self.leaves}
            for d, (idx, ax) in enumerate(zip(src_idx, axes)):
                ranges_d = dict(ranges)
                ranges_d[ax] = (0, extents[d])
                if prove_lt(idx, IntImm(src.shape[d]), ranges_d) is not True:
                    guards.append(simplify(idx < src.shape[d]))
            cond = all_of(guards)
            if cond is not None:
                store = IfThenElse(cond, store)
        for ax, ext in zip(reversed(axes), reversed(extents)):
            store = For(ax, ext, store, ForKind.SERIAL)
        self._rewrites[src] = (cbuf, base)
        return store, src

    # -- writeback ----------------------------------------------------------------
    def _emit_writeback(self) -> Stmt:
        assert self.acc_buffer is not None
        out = self.op.tensor.buffer
        axes = [Var(f"{out.name}_wb{d}") for d in range(len(self.acc_buffer.shape))]
        dst_idx = [
            simplify(Add(b, ax)) for b, ax in zip(self.acc_base, axes)
        ]
        store: Stmt = BufferStore(
            out, BufferLoad(self.acc_buffer, list(axes)), dst_idx
        )
        if self.options.boundary_checks:
            guards = []
            ranges = {iv.var: (0, iv.extent) for iv in self.leaves}
            for d, (idx, ax) in enumerate(zip(dst_idx, axes)):
                ranges_d = dict(ranges)
                ranges_d[ax] = (0, self.acc_buffer.shape[d])
                if prove_lt(idx, IntImm(out.shape[d]), ranges_d) is not True:
                    guards.append(simplify(idx < out.shape[d]))
            cond = all_of(guards)
            if cond is not None:
                store = IfThenElse(cond, store)
        for ax, ext in zip(reversed(axes), reversed(self.acc_buffer.shape)):
            store = For(ax, ext, store, ForKind.SERIAL)
        return store


# ---------------------------------------------------------------------------
# kernel assembly and MRAM extraction
# ---------------------------------------------------------------------------


def _assemble_kernel(builders: Sequence[_StageBuilder]):
    """Strip grid loops, unify grid vars, and join kernel stages."""
    canonical: Dict[str, GridDim] = {}
    bodies: List[Stmt] = []
    wram_buffers: List[Buffer] = []
    per_tasklet: Dict[Buffer, bool] = {}
    n_tasklets = 1

    for builder in builders:
        nest = builder.build()
        grid_vars: Dict[Var, Tuple[str, int]] = {}
        body = nest
        while (
            isinstance(body, For)
            and body.kind is ForKind.THREAD_BINDING
            and body.thread_tag.startswith("blockIdx")
        ):
            extent = body.extent
            if not isinstance(extent, IntImm):
                raise LoweringError("grid extents must be constant")
            grid_vars[body.var] = (body.thread_tag, extent.value)
            body = body.body
        if not grid_vars:
            raise LoweringError(
                f"stage {builder.stage.name!r}: blockIdx-bound loops must be"
                " the outermost loops of the stage"
            )
        for stmt in iter_stmts(body):
            if (
                isinstance(stmt, For)
                and stmt.kind is ForKind.THREAD_BINDING
                and stmt.thread_tag.startswith("blockIdx")
            ):
                raise LoweringError(
                    "blockIdx-bound loops must be outermost and contiguous"
                )
        mapping: Dict[Var, PrimExpr] = {}
        for var, (tag, extent) in grid_vars.items():
            dim = canonical.get(tag)
            if dim is None:
                dim = GridDim(tag, Var(tag.replace(".", "_")), extent)
                canonical[tag] = dim
            elif dim.extent != extent:
                raise LoweringError(
                    f"kernel stages disagree on {tag} extent:"
                    f" {dim.extent} vs {extent}"
                )
            mapping[var] = dim.var
        bodies.append(substitute_stmt(body, mapping))
        wram_buffers.extend(builder.wram_buffers)
        per_tasklet.update(builder.wram_per_tasklet)
        n_tasklets = max(n_tasklets, builder.n_tasklets)

    order = {"blockIdx.x": 0, "blockIdx.y": 1, "blockIdx.z": 2}
    grid = sorted(canonical.values(), key=lambda d: order[d.tag])
    if len(bodies) == 1:
        kernel = bodies[0]
    else:
        joined: List[Stmt] = []
        for i, b in enumerate(bodies):
            if i:
                joined.append(Barrier())
            joined.append(b)
        kernel = SeqStmt(joined)
    return grid, kernel, wram_buffers, per_tasklet, n_tasklets


class _TileRewriter(StmtMutator):
    """Redirect accesses of mapped buffers to their tiles.

    ``mapping`` sends a buffer to ``(tile, base)``; an access at ``idx``
    becomes an access of ``tile`` at ``idx - base``.  Used for the WRAM
    caches of one stage and for the per-DPU MRAM tiles of the kernel.
    """

    def __init__(self, mapping: Dict[Buffer, Tuple[Buffer, List[PrimExpr]]]):
        self.mapping = mapping

    def _tile_indices(self, indices, base) -> List[PrimExpr]:
        return [simplify(Sub(self.visit(i), b)) for i, b in zip(indices, base)]

    def visit_BufferLoad(self, node: BufferLoad) -> Optional[PrimExpr]:
        if node.buffer in self.mapping:
            local, base = self.mapping[node.buffer]
            return BufferLoad(local, self._tile_indices(node.indices, base))
        return self.generic_visit(node)

    def visit_BufferStore(self, node: BufferStore) -> Optional[Stmt]:
        value = self.visit(node.value)
        if node.buffer in self.mapping:
            local, base = self.mapping[node.buffer]
            return BufferStore(local, value, self._tile_indices(node.indices, base))
        idx = [self.visit(i) for i in node.indices]
        return BufferStore(node.buffer, value, idx)


def _extract_mram(
    kernel: Stmt,
    grid: List[GridDim],
    inputs: Sequence[Buffer],
    schedule: Schedule,
):
    """Compute per-DPU regions, rewrite accesses, emit transfer specs."""
    inner: Dict[Var, int] = {}
    for stmt in iter_stmts(kernel):
        if isinstance(stmt, For):
            extent = stmt.extent
            if not isinstance(extent, IntImm):
                raise LoweringError("kernel loop extents must be constant")
            inner[stmt.var] = extent.value

    accesses: Dict[Buffer, List[List[PrimExpr]]] = {}
    writes: Dict[Buffer, bool] = {}

    def record(buffer: Buffer, indices, is_write: bool) -> None:
        if buffer.scope != "global":
            return
        accesses.setdefault(buffer, []).append([simplify(i) for i in indices])
        if is_write:
            writes[buffer] = True

    for stmt in iter_stmts(kernel):
        if isinstance(stmt, BufferStore):
            record(stmt.buffer, stmt.indices, True)
            for load in collect_loads(stmt.value):
                record(load.buffer, load.indices, False)

    mapping: Dict[Buffer, Tuple[Buffer, List[PrimExpr]]] = {}
    transfers: List[TransferSpec] = []
    internal: List[Buffer] = []
    output_buffers = {t.buffer for t in schedule.outputs}

    for buffer, tuples in accesses.items():
        try:
            base, extents = infer_region(tuples, inner)
        except BoundsError as exc:
            raise LoweringError(
                f"cannot tile buffer {buffer.name!r} per DPU: {exc}"
            ) from exc
        local = Buffer(f"{buffer.name}_mram", extents, buffer.dtype, scope="mram")
        mapping[buffer] = (local, base)
        written = writes.get(buffer, False)
        if buffer in inputs:
            transfers.append(
                TransferSpec("h2d", buffer, local, tuple(base), tuple(extents))
            )
        elif written and (buffer in output_buffers or _read_by_host(buffer, schedule)):
            transfers.append(
                TransferSpec("d2h", buffer, local, tuple(base), tuple(extents))
            )
        else:
            internal.append(local)

    new_kernel = _TileRewriter(mapping).visit_stmt(kernel)
    assert new_kernel is not None
    return new_kernel, transfers, internal


def _read_by_host(buffer: Buffer, schedule: Schedule) -> bool:
    """Whether any host-side compute stage loads ``buffer``."""
    for stage in schedule.stages:
        if stage.kind != "compute":
            continue
        if any(tag.startswith("blockIdx") for tag in stage.binds.values()):
            continue
        if any(ld.buffer is buffer for ld in collect_loads(stage.op.body)):
            return True
    return False


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class _LoadIndexSimplifier(StmtMutator):
    def visit_BufferLoad(self, node: BufferLoad) -> PrimExpr:
        return BufferLoad(node.buffer, [simplify(self.visit(i)) for i in node.indices])


def simplify_loads(expr: PrimExpr) -> PrimExpr:
    """Simplify every index expression inside ``expr``."""
    return _LoadIndexSimplifier().visit(expr)


def rewrite_cached_loads(
    expr: PrimExpr, rewrites: Dict[Buffer, Tuple[Buffer, List[PrimExpr]]]
) -> PrimExpr:
    """Redirect loads of cached buffers to their WRAM tiles."""
    if not rewrites:
        return expr
    return _TileRewriter(rewrites).visit(expr)
