"""Tensor-expression operations: placeholders and index-wise computes."""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..tir import (
    Buffer,
    BufferLoad,
    Exp,
    PrimExpr,
    Select,
    Tanh,
    Var,
    as_expr,
    collect_loads,
    const,
)

__all__ = [
    "IterVar",
    "Tensor",
    "Operation",
    "PlaceholderOp",
    "ComputeOp",
    "Reduce",
    "placeholder",
    "compute",
    "reduce_axis",
    "sum",
    "max_reduce",
    "min_reduce",
    "exp",
    "tanh",
    "select",
]

_name_counter = itertools.count()


def _fresh_name(prefix: str) -> str:
    return f"{prefix}_{next(_name_counter)}"


class IterVar:
    """An iteration axis: a variable plus its extent and kind.

    ``kind`` is ``"spatial"`` for data-parallel axes or ``"reduce"`` for
    reduction axes.  Schedule relations (split/fuse) derive new IterVars
    from these roots.
    """

    __slots__ = ("var", "extent", "kind")

    def __init__(self, extent: int, name: str, kind: str = "spatial") -> None:
        if kind not in ("spatial", "reduce"):
            raise ValueError(f"bad IterVar kind {kind!r}")
        self.var = Var(name)
        self.extent = int(extent)
        self.kind = kind

    @property
    def name(self) -> str:
        return self.var.name

    @property
    def is_reduce(self) -> bool:
        return self.kind == "reduce"

    def __repr__(self) -> str:
        tag = "R" if self.is_reduce else "S"
        return f"IterVar({self.name}: {self.extent} {tag})"


class Reduce:
    """Marker returned by reducers inside a compute body.

    Holds the element expression, reduction axes, identity element and a
    combiner name (``add``/``max``/``min``).
    """

    __slots__ = ("expr", "axes", "combiner", "identity")

    def __init__(
        self,
        expr: PrimExpr,
        axes: Sequence[IterVar],
        combiner: str,
        identity,
    ) -> None:
        if not axes:
            raise ValueError("reduction requires at least one axis")
        if any(not ax.is_reduce for ax in axes):
            raise ValueError("reduction axes must be created via te.reduce_axis")
        self.expr = as_expr(expr)
        self.axes: Tuple[IterVar, ...] = tuple(axes)
        self.combiner = combiner
        self.identity = identity


class Operation:
    """Base class for tensor operations."""

    name: str

    def output(self) -> "Tensor":
        raise NotImplementedError


def _declared(tensor: "Tensor") -> "Tensor":
    """Mark a tensor declared through placeholder() / compute() as its
    buffer's producer, which is how Schedule walks the operation graph.
    Tensors that schedule primitives create (caches, rfactor stages) are
    not marked: a schedule finds those through its own stages."""
    tensor.buffer.producer = tensor
    return tensor


class Tensor:
    """A multi-dimensional value produced by an operation.

    Indexing a tensor inside a compute body yields a :class:`BufferLoad`
    against the tensor's backing buffer; the scheduler may later redirect
    that load to an MRAM tile or a WRAM cache.
    """

    __slots__ = ("op", "buffer")

    def __init__(self, op: Operation, buffer: Buffer) -> None:
        self.op = op
        self.buffer = buffer

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.buffer.shape

    @property
    def dtype(self) -> str:
        return self.buffer.dtype

    @property
    def name(self) -> str:
        return self.buffer.name

    def __getitem__(self, indices) -> BufferLoad:
        if not isinstance(indices, tuple):
            indices = (indices,)
        exprs = [ix.var if isinstance(ix, IterVar) else as_expr(ix) for ix in indices]
        if len(exprs) != self.buffer.ndim:
            raise ValueError(
                f"tensor {self.name!r} is {self.buffer.ndim}-D,"
                f" got {len(exprs)} indices"
            )
        return BufferLoad(self.buffer, exprs)

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"Tensor({self.name}: {self.dtype}[{dims}])"


class PlaceholderOp(Operation):
    """An input tensor."""

    def __init__(self, name: str, shape: Sequence[int], dtype: str) -> None:
        self.name = name
        self.tensor = Tensor(self, Buffer(name, shape, dtype, scope="global"))

    def output(self) -> Tensor:
        return self.tensor


class ComputeOp(Operation):
    """An index-wise computation, optionally with a reduction.

    Attributes
    ----------
    axis:
        Spatial iteration axes (one per output dimension).
    reduce_axis:
        Reduction axes (empty for element-wise ops).
    body:
        Scalar expression for one output element in terms of axis vars.
    combiner / identity:
        Reduction combiner name and identity element (``None`` for
        element-wise computes).
    predicates:
        Bounds the body holds under: empty, except on the stage
        :meth:`~repro.schedule.Schedule.rfactor` makes from an imperfect
        split, which sets them (no constructor option).
    """

    def __init__(
        self,
        name: str,
        axis: Sequence[IterVar],
        reduce_axis: Sequence[IterVar],
        body: PrimExpr,
        dtype: str,
        combiner: Optional[str] = None,
        identity=None,
    ) -> None:
        self.name = name
        self.axis: Tuple[IterVar, ...] = tuple(axis)
        self.reduce_axis: Tuple[IterVar, ...] = tuple(reduce_axis)
        self.body = body
        self.combiner = combiner
        self.identity = identity
        self.predicates: List[PrimExpr] = []
        shape = tuple(ax.extent for ax in axis)
        self.tensor = Tensor(self, Buffer(name, shape, dtype, scope="global"))

    @property
    def is_reduction(self) -> bool:
        return bool(self.reduce_axis)

    def output(self) -> Tensor:
        return self.tensor

    def input_buffers(self) -> List[Buffer]:
        """Buffers loaded by the body (deduplicated, in first-use order)."""
        seen: List[Buffer] = []
        for load in collect_loads(self.body):
            if load.buffer not in seen:
                seen.append(load.buffer)
        return seen


def placeholder(
    shape: Sequence[int], dtype: str = "float32", name: Optional[str] = None
) -> Tensor:
    """Declare an input tensor."""
    return _declared(PlaceholderOp(name or _fresh_name("ph"), shape, dtype).output())


def reduce_axis(extent: int, name: Optional[str] = None) -> IterVar:
    """Declare a reduction axis of the given extent."""
    return IterVar(extent, name or _fresh_name("k"), kind="reduce")


def sum(expr, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Sum-reduce ``expr`` over ``axis``."""
    axes = [axis] if isinstance(axis, IterVar) else list(axis)
    return Reduce(expr, axes, "add", 0)


def max_reduce(expr, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Max-reduce ``expr`` over ``axis``."""
    axes = [axis] if isinstance(axis, IterVar) else list(axis)
    return Reduce(expr, axes, "max", float("-inf"))


def min_reduce(expr, axis: Union[IterVar, Sequence[IterVar]]) -> Reduce:
    """Min-reduce ``expr`` over ``axis``."""
    axes = [axis] if isinstance(axis, IterVar) else list(axis)
    return Reduce(expr, axes, "min", float("inf"))


def exp(x) -> PrimExpr:
    """``e ** x`` of a float expression (a host-only intrinsic)."""
    return Exp(x)


def tanh(x) -> PrimExpr:
    """Hyperbolic tangent of a float expression (a host-only intrinsic)."""
    return Tanh(x)


def select(condition, true_value, false_value) -> PrimExpr:
    """``true_value`` where ``condition`` holds, else ``false_value`` (a
    host-only node; both arms must read in bounds everywhere)."""
    return Select(condition, true_value, false_value)


def compute(
    shape: Sequence[int],
    fcompute: Callable,
    name: Optional[str] = None,
    dtype: Optional[str] = None,
) -> Tensor:
    """Define ``out[i...] = fcompute(i...)``.

    ``fcompute`` receives one :class:`Var` per output dimension and returns
    either a scalar expression or a :class:`Reduce` built by :func:`sum` /
    :func:`max_reduce` / :func:`min_reduce`.
    """
    name = name or _fresh_name("compute")
    axis = [IterVar(extent, f"{name}_i{d}") for d, extent in enumerate(shape)]
    result = fcompute(*[ax.var for ax in axis])
    if isinstance(result, Reduce):
        body = result.expr
        out_dtype = dtype or body.dtype
        op = ComputeOp(
            name,
            axis,
            result.axes,
            body,
            out_dtype,
            combiner=result.combiner,
            identity=result.identity,
        )
        return _declared(op.output())
    body = as_expr(result)
    out_dtype = dtype or body.dtype
    return _declared(ComputeOp(name, axis, (), body, out_dtype).output())


def identity_value(combiner: str, dtype: str) -> PrimExpr:
    """IR constant for a combiner's identity element."""
    if combiner == "add":
        return const(0, dtype)
    if combiner == "max":
        return const(-3.0e38 if dtype.startswith("float") else -(2**31) + 1, dtype)
    if combiner == "min":
        return const(3.0e38 if dtype.startswith("float") else 2**31 - 1, dtype)
    raise ValueError(f"unknown combiner {combiner!r}")
