"""The schedule: per-stage loop structure and the Table-2 primitives.

A :class:`Schedule` owns one :class:`Stage` per operation.  Stages expose
the primitives ATiM repurposes for UPMEM (paper Table 2):

=====================  ====================================================
``split``/``reorder``   loop tiling — host-to-DPU distribution and
                        multi-level kernel tiling
``bind``                DPU binding (``blockIdx.*``) and tasklet binding
                        (``threadIdx.x``)
``rfactor``             hierarchical reduction (DPU partials + host final)
``cache_read``/``cache_write`` + ``compute_at``/``reverse_compute_at``
                        WRAM caching tiles and their locations
``parallel``            host post-processing parallelism
``unroll``              kernel inner-loop unrolling
=====================  ====================================================
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..te import ComputeOp, IterVar, PlaceholderOp, Tensor
from ..te.operation import _fresh_name
from ..tir import (
    Buffer,
    BufferLoad,
    Interval,
    Var,
    collect_loads,
    eval_interval,
    simplify,
    substitute,
)
from .relations import Fuse, Split, derives_from_reduce

__all__ = ["Schedule", "Stage", "ScheduleError"]

THREAD_TAGS = ("blockIdx.x", "blockIdx.y", "blockIdx.z", "threadIdx.x")


class ScheduleError(ValueError):
    """Raised when a primitive is applied in an unsupported way."""


class Stage:
    """Scheduling state for one operation."""

    def __init__(self, schedule: "Schedule", op) -> None:
        self.schedule = schedule
        self.op = op
        roots: List[IterVar] = []
        if isinstance(op, ComputeOp):
            roots = list(op.axis) + list(op.reduce_axis)
        self.root_iter_vars: List[IterVar] = roots
        self.leaf_iter_vars: List[IterVar] = list(roots)
        self.relations: List[object] = []
        self.binds: Dict[IterVar, str] = {}
        self.annotations: Dict[IterVar, str] = {}
        # Attachment: None = root; else (consumer_stage, itervar).
        self.attach: Optional[Tuple["Stage", IterVar]] = None
        # Caching bookkeeping --------------------------------------------
        # cache_reads: source buffer -> cache stage (applies to this
        # stage's loads of that buffer).
        self.cache_reads: Dict[Buffer, "Stage"] = {}
        # For cache_read stages: (source_buffer, scope); buffer sized at
        # lowering time.
        self.cache_source: Optional[Buffer] = None
        self.cache_scope: Optional[str] = None
        # For compute stages with a write cache: scope of the accumulator.
        self.write_cache_scope: Optional[str] = None
        # The writeback stage created by cache_write.
        self.writeback: Optional["Stage"] = None
        # For writeback stages: the compute stage they drain.
        self.writeback_of: Optional["Stage"] = None

    # -- identity ---------------------------------------------------------
    @property
    def name(self) -> str:
        return self.op.name

    @property
    def is_compute(self) -> bool:
        return isinstance(self.op, ComputeOp)

    @property
    def kind(self) -> str:
        if self.cache_source is not None:
            return "cache_read"
        if self.writeback_of is not None:
            return "writeback"
        if isinstance(self.op, PlaceholderOp):
            return "placeholder"
        return "compute"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        leaves = ", ".join(iv.name for iv in self.leaf_iter_vars)
        return f"Stage({self.name}: [{leaves}])"

    # -- helpers ----------------------------------------------------------
    def _check_leaf(self, ivar: IterVar) -> None:
        if ivar not in self.leaf_iter_vars:
            raise ScheduleError(
                f"{ivar!r} is not a current leaf axis of stage {self.name!r}"
            )

    def leaf_is_reduce(self, ivar: IterVar) -> bool:
        """Whether a leaf axis descends from a reduction axis."""
        return derives_from_reduce(ivar, self.relations)

    # -- primitives -------------------------------------------------------
    def split(
        self,
        ivar: IterVar,
        factor: Optional[int] = None,
        nparts: Optional[int] = None,
    ) -> Tuple[IterVar, IterVar]:
        """Tile ``ivar`` into ``(outer, inner)``.

        Exactly one of ``factor`` (inner extent) or ``nparts`` (outer
        extent) must be given.  Inexact splits are allowed and produce
        boundary checks during lowering.
        """
        self._check_leaf(ivar)
        if (factor is None) == (nparts is None):
            raise ScheduleError("split needs exactly one of factor/nparts")
        if factor is not None:
            if factor <= 0:
                raise ScheduleError(f"split factor must be positive, got {factor}")
            inner_extent = int(factor)
            outer_extent = math.ceil(ivar.extent / inner_extent)
        else:
            if nparts <= 0:
                raise ScheduleError(f"split nparts must be positive, got {nparts}")
            outer_extent = int(nparts)
            inner_extent = math.ceil(ivar.extent / outer_extent)
        kind = ivar.kind
        outer = IterVar(outer_extent, f"{ivar.name}.o", kind)
        inner = IterVar(inner_extent, f"{ivar.name}.i", kind)
        self.relations.append(Split(ivar, outer, inner, inner_extent))
        pos = self.leaf_iter_vars.index(ivar)
        self.leaf_iter_vars[pos : pos + 1] = [outer, inner]
        return outer, inner

    def fuse(self, outer: IterVar, inner: IterVar) -> IterVar:
        """Fuse two adjacent leaf axes into one."""
        self._check_leaf(outer)
        self._check_leaf(inner)
        io = self.leaf_iter_vars.index(outer)
        ii = self.leaf_iter_vars.index(inner)
        if ii != io + 1:
            raise ScheduleError(
                f"fuse requires adjacent axes; {outer.name} and {inner.name}"
                " are not adjacent"
            )
        if outer.kind != inner.kind:
            raise ScheduleError(
                "cannot fuse a spatial axis with a reduction axis (re-init"
                " of the accumulator would be emitted per partial sum)"
            )
        kind = outer.kind
        fused = IterVar(
            outer.extent * inner.extent, f"{outer.name}.{inner.name}.f", kind
        )
        self.relations.append(Fuse(outer, inner, fused))
        self.leaf_iter_vars[io : io + 2] = [fused]
        return fused

    def reorder(self, *ivars: IterVar) -> None:
        """Reorder the listed leaf axes into the given order.

        Axes not listed keep their positions; the listed ones are placed,
        in order, into the slots the listed ones previously occupied.
        """
        for iv in ivars:
            self._check_leaf(iv)
        if len(set(ivars)) != len(ivars):
            raise ScheduleError("reorder arguments must be distinct")
        positions = sorted(self.leaf_iter_vars.index(iv) for iv in ivars)
        for pos, iv in zip(positions, ivars):
            self.leaf_iter_vars[pos] = iv

    def bind(self, ivar: IterVar, tag: str) -> None:
        """Bind a leaf axis to a DPU grid dimension or the tasklet axis."""
        self._check_leaf(ivar)
        if tag not in THREAD_TAGS:
            raise ScheduleError(f"unknown thread tag {tag!r}; expected {THREAD_TAGS}")
        for iv, existing in self.binds.items():
            if existing == tag and iv is not ivar:
                raise ScheduleError(f"{tag} already bound to {iv.name}")
        self.binds[ivar] = tag

    def unroll(self, ivar: IterVar) -> None:
        """Request full unrolling of a leaf axis."""
        self._check_leaf(ivar)
        self.annotations[ivar] = "unroll"

    def parallel(self, ivar: IterVar) -> None:
        """Execute a host-side loop with CPU threads (post-processing)."""
        self._check_leaf(ivar)
        self.annotations[ivar] = "parallel"

    def compute_at(self, consumer: Union["Stage", Tensor], ivar: IterVar) -> None:
        """Attach this (cache) stage inside ``consumer`` at axis ``ivar``."""
        consumer_stage = self.schedule._as_stage(consumer)
        consumer_stage._check_leaf(ivar)
        self.attach = (consumer_stage, ivar)

    # reverse_compute_at has identical mechanics for writeback stages; the
    # separate name mirrors the paper / TVM API.
    reverse_compute_at = compute_at


class Schedule:
    """A schedule over the operation graph reaching ``outputs``."""

    def __init__(self, outputs: Union[Tensor, Sequence[Tensor]]) -> None:
        if isinstance(outputs, Tensor):
            outputs = [outputs]
        self.outputs: List[Tensor] = list(outputs)
        self.stages: List[Stage] = []
        self._stage_of_buffer: Dict[Buffer, Stage] = {}
        for tensor in self._toposort(self.outputs):
            stage = Stage(self, tensor.op)
            self.stages.append(stage)
            self._stage_of_buffer[tensor.buffer] = stage

    # -- graph construction ------------------------------------------------
    @staticmethod
    def _toposort(outputs: Sequence[Tensor]) -> List[Tensor]:
        order: List[Tensor] = []
        visited = set()

        def visit(t: Tensor) -> None:
            if id(t.op) in visited:
                return
            visited.add(id(t.op))
            if isinstance(t.op, ComputeOp):
                for buf in t.op.input_buffers():
                    if buf.producer is not None:
                        visit(buf.producer)
            order.append(t)

        for out in outputs:
            visit(out)
        return order

    # -- lookup -------------------------------------------------------------
    def __getitem__(self, tensor: Union[Tensor, Buffer]) -> Stage:
        return self._as_stage(tensor)

    def _as_stage(self, key: Union[Stage, Tensor, Buffer]) -> Stage:
        if isinstance(key, Stage):
            return key
        buffer = key.buffer if isinstance(key, Tensor) else key
        try:
            return self._stage_of_buffer[buffer]
        except KeyError:
            raise ScheduleError(f"no stage for buffer {buffer!r}") from None

    # -- caching primitives ---------------------------------------------------
    def cache_read(
        self,
        consumer: Union[Tensor, Stage],
        source: Union[Tensor, Buffer],
        scope: str = "wram",
    ) -> Stage:
        """Stage a WRAM caching tile for ``consumer``'s loads of ``source``.

        Returns the cache stage; place it with ``compute_at``.
        """
        consumer_stage = self._as_stage(consumer)
        src_buffer = source.buffer if isinstance(source, Tensor) else source
        if src_buffer in consumer_stage.cache_reads:
            raise ScheduleError(
                f"{src_buffer.name!r} already cached for {consumer_stage.name!r}"
            )
        loads = collect_loads(consumer_stage.op.body)
        if not any(ld.buffer is src_buffer for ld in loads):
            raise ScheduleError(
                f"stage {consumer_stage.name!r} does not read {src_buffer.name!r}"
            )
        cache_op = PlaceholderOp(f"{src_buffer.name}_{scope}", (1,), src_buffer.dtype)
        cache_stage = Stage(self, cache_op)
        cache_stage.cache_source = src_buffer
        cache_stage.cache_scope = scope
        consumer_stage.cache_reads[src_buffer] = cache_stage
        self.stages.append(cache_stage)
        return cache_stage

    def cache_write(self, tensor: Union[Tensor, Stage], scope: str = "wram") -> Stage:
        """Accumulate ``tensor`` in a ``scope`` buffer, then write back.

        Returns the writeback stage; place it with ``reverse_compute_at``.
        """
        stage = self._as_stage(tensor)
        if stage.write_cache_scope is not None:
            raise ScheduleError(f"stage {stage.name!r} already has a write cache")
        if not stage.is_compute:
            raise ScheduleError("cache_write applies to compute stages")
        stage.write_cache_scope = scope
        wb_op = PlaceholderOp(f"{stage.name}_wb", (1,), stage.op.tensor.dtype)
        wb_stage = Stage(self, wb_op)
        wb_stage.writeback_of = stage
        stage.writeback = wb_stage
        self.stages.append(wb_stage)
        return wb_stage

    # -- rfactor -----------------------------------------------------------
    def rfactor(self, tensor: Union[Tensor, Stage], ivar: IterVar) -> Tensor:
        """Factor the reduction at leaf axis ``ivar`` into a parallel stage.

        Produces a new tensor ``<name>.rf`` whose leading spatial axis is
        ``ivar`` (partial results, one slice per ``ivar`` value) and turns
        the original stage into a small reduction over those partials —
        lowered later into per-DPU partial reduction plus host final
        reduction (paper §5.2.2).
        """
        stage = self._as_stage(tensor)
        stage._check_leaf(ivar)
        op = stage.op
        if not isinstance(op, ComputeOp) or not op.is_reduction:
            raise ScheduleError("rfactor applies to reduction stages")
        if not stage.leaf_is_reduce(ivar):
            raise ScheduleError("rfactor axis must derive from a reduction axis")
        if stage.binds or stage.cache_reads or stage.write_cache_scope:
            raise ScheduleError("rfactor must be applied before binds/caches")

        from .relations import reconstruct_roots

        recon = reconstruct_roots(stage.root_iter_vars, stage.relations)
        reduce_leaves = [
            iv for iv in stage.leaf_iter_vars if stage.leaf_is_reduce(iv)
        ]
        if ivar not in reduce_leaves:
            raise ScheduleError("rfactor axis must be a reduction leaf")

        # Fresh iteration variables for the rfactor op.
        rf_name = f"{op.name}.rf"
        factor_axis = IterVar(ivar.extent, f"{rf_name}_r", "spatial")
        spatial_axes = [
            IterVar(ax.extent, f"{rf_name}_{ax.name}", "spatial") for ax in op.axis
        ]
        inner_reduce = [
            IterVar(iv.extent, f"{rf_name}_{iv.name}", "reduce")
            for iv in reduce_leaves
            if iv is not ivar
        ]

        # Substitution: original root axis vars -> reconstructions with the
        # stage's leaf vars replaced by the fresh rf vars.
        leaf_map: Dict[Var, Var] = {ivar.var: factor_axis.var}
        for old, new in zip(op.axis, spatial_axes):
            leaf_map[old.var] = new.var
        rest = [iv for iv in reduce_leaves if iv is not ivar]
        for old, new in zip(rest, inner_reduce):
            leaf_map[old.var] = new.var

        subst: Dict[Var, "object"] = {}
        predicates = []
        for root in op.reduce_axis:
            recon_expr = substitute(recon[root.var], leaf_map)
            subst[root.var] = recon_expr
            # Guard against imperfect reduction splits.
            env = {
                factor_axis.var: Interval(0, factor_axis.extent - 1),
            }
            for iv in spatial_axes + inner_reduce:
                env[iv.var] = Interval(0, iv.extent - 1)
            rng = eval_interval(recon_expr, env)
            if rng is None or rng.hi is None or rng.hi >= root.extent:
                predicates.append(simplify(recon_expr < root.extent))
        for old, new in zip(op.axis, spatial_axes):
            subst[old.var] = new.var

        # Carry forward predicates of an already-rfactored op (nested
        # hierarchical reductions, e.g. DPU level then tasklet level).
        for pred in getattr(op, "predicates", []):
            predicates.append(simplify(substitute(pred, subst)))

        new_body = substitute(op.body, subst)
        rf_op = ComputeOp(
            rf_name,
            [factor_axis] + spatial_axes,
            inner_reduce,
            new_body,
            op.tensor.dtype,
            combiner=op.combiner,
            identity=op.identity,
        )
        rf_op.predicates = predicates  # type: ignore[attr-defined]
        rf_tensor = rf_op.output()

        # Final stage: reduce the partials over the factored axis, writing
        # into the ORIGINAL buffer so downstream consumers are unaffected.
        final_axis = [IterVar(ax.extent, f"{ax.name}.v", "spatial") for ax in op.axis]
        final_reduce = IterVar(ivar.extent, f"{op.name}_rk", "reduce")
        final_body = BufferLoad(
            rf_tensor.buffer,
            [final_reduce.var] + [ax.var for ax in final_axis],
        )
        final_op = ComputeOp(
            f"{op.name}_final",
            final_axis,
            [final_reduce],
            final_body,
            op.tensor.dtype,
            combiner=op.combiner,
            identity=op.identity,
        )
        final_op.tensor = Tensor(final_op, op.tensor.buffer)

        rf_stage = Stage(self, rf_op)
        final_stage = Stage(self, final_op)
        idx = self.stages.index(stage)
        self.stages[idx : idx + 1] = [rf_stage, final_stage]
        self._stage_of_buffer[rf_tensor.buffer] = rf_stage
        self._stage_of_buffer[op.tensor.buffer] = final_stage
        return rf_tensor
