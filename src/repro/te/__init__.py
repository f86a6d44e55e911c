"""Tensor-expression DSL: declare computations, then schedule them.

This is the high-level entry point mirroring TVM's ``te`` module::

    A = te.placeholder((M, K), "float32", "A")
    B = te.placeholder((K,), "float32", "B")
    k = te.reduce_axis(K, "k")
    C = te.compute((M,), lambda i: te.sum(A[i, k] * B[k], axis=[k]), "C")

Computations stay abstract; :class:`repro.schedule.Schedule` decides how
they are tiled, distributed across DPUs and cached in WRAM.
"""

from .operation import (
    ComputeOp,
    IterVar,
    Operation,
    PlaceholderOp,
    Reduce,
    Tensor,
    compute,
    exp,
    max_reduce,
    min_reduce,
    placeholder,
    reduce_axis,
    select,
    sum,
    tanh,
)

__all__ = [
    "Tensor",
    "IterVar",
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
