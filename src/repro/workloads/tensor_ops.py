"""The paper's benchmark tensor operations (§6).

Each factory returns a :class:`Workload` bundling the TE graph, a numpy
reference implementation, and bookkeeping (flop count, footprint) used by
the harness.  Sizes follow the paper: workloads are parameterized by their
logical dimensions, with the standard 4/64/256/512 MB instances defined in
:mod:`repro.workloads.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import te
from ..te import Tensor
from ..tir import BufferLoad, ExprMutator, substitute

__all__ = [
    "Workload",
    "va",
    "geva",
    "red",
    "mtv",
    "gemv",
    "ttv",
    "mmtv",
    "with_epilogue",
    "with_prologue",
]


@dataclass
class Workload:
    """A tensor program instance to compile and evaluate."""

    name: str
    inputs: List[Tensor]
    output: Tensor
    reference: Callable[..., np.ndarray]
    flops: float
    shape: Tuple[int, ...]
    #: Reduction extent (0 for element-wise ops) — drives sketch choice.
    reduce_extent: int = 0
    params: Dict[str, int] = field(default_factory=dict)
    #: Names of inputs resident in PIM memory across runs (weights, the
    #: KV cache): the paper's "constant tensors ... transferred once
    #: before kernel launches" (§5.4).
    const_inputs: frozenset = frozenset()
    #: The tensor the sketch distributes across DPUs: ``output`` itself,
    #: or the base program's output when host epilogue stages follow it
    #: (:func:`with_epilogue`).
    kernel_output: Optional[Tensor] = None
    #: Input name -> the product of the host prologue stages over it,
    #: which the kernel reads in its place (:func:`with_prologue`).
    prologues: Dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kernel_output is None:
            self.kernel_output = self.output

    @property
    def kernel_inputs(self) -> List[Tensor]:
        """The tensors the kernel reads, in input declaration order: an
        input, or the product of its host prologue; an input only the
        host epilogue reads is none of them."""
        if self.kernel_output is self.output and not self.prologues:
            return self.inputs
        reads = set(self.kernel_output.op.input_buffers())
        kernel = [self.prologues.get(t.name, t) for t in self.inputs]
        return [t for t in kernel if t.buffer in reads]

    @property
    def bytes_in(self) -> int:
        return sum(t.buffer.nbytes for t in self.inputs)

    @property
    def bytes_out(self) -> int:
        return self.output.buffer.nbytes

    @property
    def footprint_mb(self) -> float:
        return (self.bytes_in + self.bytes_out) / (1024.0 * 1024.0)

    def random_inputs(self, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            t.name: rng.random(t.shape, dtype=np.float32)
            for t in self.inputs
        }

    def reference_output(self, inputs: Dict[str, np.ndarray]) -> np.ndarray:
        return self.reference(*[inputs[t.name] for t in self.inputs])


def va(n: int) -> Workload:
    """Vector addition: ``C(i) = A(i) + B(i)``."""
    A = te.placeholder((n,), "float32", "A")
    B = te.placeholder((n,), "float32", "B")
    C = te.compute((n,), lambda i: A[i] + B[i], "C")
    return Workload(
        name="va",
        inputs=[A, B],
        output=C,
        reference=lambda a, b: a + b,
        flops=float(n),
        shape=(n,),
        params={"n": n},
    )


def geva(n: int, c: float = 2.0, d: float = 3.0) -> Workload:
    """General vector addition: ``C(i) = c*A(i) + d*B(i)``."""
    A = te.placeholder((n,), "float32", "A")
    B = te.placeholder((n,), "float32", "B")
    C = te.compute((n,), lambda i: A[i] * c + B[i] * d, "C")
    return Workload(
        name="geva",
        inputs=[A, B],
        output=C,
        reference=lambda a, b: c * a + d * b,
        flops=3.0 * n,
        shape=(n,),
        params={"n": n},
    )


def red(n: int) -> Workload:
    """Reduction: ``b = sum_i A(i)``."""
    A = te.placeholder((n,), "float32", "A")
    k = te.reduce_axis(n, "k")
    C = te.compute((1,), lambda i: te.sum(A[k], axis=k), "C")
    return Workload(
        name="red",
        inputs=[A],
        output=C,
        reference=lambda a: np.asarray([a.sum()], dtype=np.float64),
        flops=float(n),
        shape=(n,),
        reduce_extent=n,
        params={"n": n},
    )


def mtv(m: int, k: int) -> Workload:
    """Matrix-vector product: ``C(i) = sum_j A(i,j) * B(j)``."""
    A = te.placeholder((m, k), "float32", "A")
    B = te.placeholder((k,), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute((m,), lambda i: te.sum(A[i, kk] * B[kk], axis=kk), "C")
    return Workload(
        name="mtv",
        inputs=[A, B],
        output=C,
        reference=lambda a, b: a @ b,
        flops=2.0 * m * k,
        shape=(m, k),
        reduce_extent=k,
        params={"m": m, "k": k},
        const_inputs=frozenset({"A"}),
    )


def gemv(m: int, k: int, c: float = 2.0) -> Workload:
    """Scaled matrix-vector product: ``C(i) = c * sum_j A(i,j) * B(j)``.

    The scale is folded into the reduction body (matching the PrIM-style
    formulation where the constant multiplies every product).
    """
    A = te.placeholder((m, k), "float32", "A")
    B = te.placeholder((k,), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute(
        (m,), lambda i: te.sum(A[i, kk] * B[kk] * c, axis=kk), "C"
    )
    return Workload(
        name="gemv",
        inputs=[A, B],
        output=C,
        reference=lambda a, b: c * (a @ b),
        flops=3.0 * m * k,
        shape=(m, k),
        reduce_extent=k,
        params={"m": m, "k": k},
        const_inputs=frozenset({"A"}),
    )


def ttv(m: int, n: int, k: int) -> Workload:
    """Tensor-times-vector: ``C(i,j) = sum_l A(i,j,l) * B(l)``."""
    A = te.placeholder((m, n, k), "float32", "A")
    B = te.placeholder((k,), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute(
        (m, n), lambda i, j: te.sum(A[i, j, kk] * B[kk], axis=kk), "C"
    )
    return Workload(
        name="ttv",
        inputs=[A, B],
        output=C,
        reference=lambda a, b: a @ b,
        flops=2.0 * m * n * k,
        shape=(m, n, k),
        reduce_extent=k,
        params={"m": m, "n": n, "k": k},
        const_inputs=frozenset({"A"}),
    )


def mmtv(m: int, n: int, k: int) -> Workload:
    """Batched matrix-vector: ``C(i,j) = sum_l A(i,j,l) * B(i,l)``.

    This is the multi-head-attention shape: ``m`` = batch × heads,
    ``n`` = tokens, ``k`` = head dimension.
    """
    A = te.placeholder((m, n, k), "float32", "A")
    B = te.placeholder((m, k), "float32", "B")
    kk = te.reduce_axis(k, "k")
    C = te.compute(
        (m, n), lambda i, j: te.sum(A[i, j, kk] * B[i, kk], axis=kk), "C"
    )
    return Workload(
        name="mmtv",
        inputs=[A, B],
        output=C,
        reference=lambda a, b: np.einsum("ijl,il->ij", a, b),
        flops=2.0 * m * n * k,
        shape=(m, n, k),
        reduce_extent=k,
        params={"m": m, "n": n, "k": k},
        const_inputs=frozenset({"A"}),
    )


def with_epilogue(
    base: Workload,
    epilogue: Callable[..., Tensor],
    reference: Callable[..., np.ndarray],
    flops: float,
    extra_inputs: Sequence[Tensor] = (),
) -> Workload:
    """``base`` followed by host epilogue stages, as one program.

    ``epilogue(C, *extra_inputs)`` builds the stages over ``base``'s
    output ``C`` and returns the last; ``reference(c, *extra)`` is their
    NumPy semantics and ``flops`` their work.  The result keeps
    ``base``'s name, shape and params, so its family, sketch parameters
    and tuning space are ``base``'s: the sketch distributes ``C``
    (:attr:`Workload.kernel_output`) and leaves the stages unbound, so
    the lowering emits them as ``host_post`` statements.  An extra
    input only the epilogue reads never crosses to the DPUs.  A base
    with a host prologue (:func:`with_prologue`) keeps it.
    """
    n = len(base.inputs)
    base_reference = base.reference

    def fused(*arrays):
        return reference(base_reference(*arrays[:n]), *arrays[n:])

    return Workload(
        name=base.name,
        inputs=list(base.inputs) + list(extra_inputs),
        output=epilogue(base.output, *extra_inputs),
        reference=fused,
        flops=base.flops + flops,
        shape=base.shape,
        reduce_extent=base.reduce_extent,
        params=dict(base.params),
        const_inputs=base.const_inputs,
        kernel_output=base.output,
        prologues=dict(base.prologues),
    )


class _Redirect(ExprMutator):
    """Loads of one buffer read another, at the same indices."""

    def __init__(self, old, new) -> None:
        self.old, self.new = old, new

    def visit_BufferLoad(self, node: BufferLoad):
        if node.buffer is self.old:
            return BufferLoad(self.new, [self.visit(i) for i in node.indices])
        return None


def _read_instead(tensor: Tensor, old: Tensor, new: Tensor) -> Tensor:
    """``tensor``'s one-stage compute again, reading ``new`` where it
    read ``old`` (the same name, axes and reduction)."""
    op = tensor.op
    redirect = _Redirect(old.buffer, new.buffer)

    def body(*idx):
        expr = redirect.visit(
            substitute(op.body, {ax.var: i for ax, i in zip(op.axis, idx)})
        )
        if not op.reduce_axis:
            return expr
        return te.Reduce(expr, op.reduce_axis, op.combiner, op.identity)

    return te.compute(tensor.shape, body, op.name, tensor.dtype)


def with_prologue(
    base: Workload,
    operand: str,
    prologue: Callable[[Tensor], Tensor],
    reference: Callable[[np.ndarray], np.ndarray],
    flops: float,
) -> Workload:
    """``base`` with host prologue stages on its input ``operand``, as
    one program: the twin of :func:`with_epilogue`.

    ``prologue(X)`` builds the stages over ``base``'s input ``X`` named
    ``operand`` and returns the last, the same shape as ``X``;
    ``reference(x)`` is their NumPy semantics and ``flops`` their work.
    ``base``'s compute is rebuilt to read that product where it read
    ``X``.  The result keeps ``base``'s name, inputs, shape and params,
    so its family, sketch parameters and tuning space are ``base``'s:
    the sketch caches the product in ``X``'s place
    (:attr:`Workload.kernel_inputs`) and leaves the stages unbound, so
    the lowering emits them as ``host_pre`` statements and ships the
    product, not ``X``, to the DPUs.  ``base`` must be one compute stage
    and ``operand`` a non-resident input (a prologue over a staged
    tensor would recompute what never moves).
    """
    if base.kernel_output is not base.output or base.prologues:
        raise ValueError(f"{base.name}: a prologue needs a one-stage base")
    names = [t.name for t in base.inputs]
    if operand not in names or operand in base.const_inputs:
        raise ValueError(
            f"{base.name}: {operand!r} is not a non-resident input of {names}"
        )
    k = names.index(operand)
    raw = base.inputs[k]
    product = prologue(raw)
    if tuple(product.shape) != tuple(raw.shape):
        raise ValueError(
            f"prologue of {operand!r} makes shape {product.shape},"
            f" not {raw.shape}"
        )
    output = _read_instead(base.output, raw, product)
    base_reference = base.reference

    def fused(*arrays):
        arrays = list(arrays)
        arrays[k] = reference(arrays[k])
        return base_reference(*arrays)

    return Workload(
        name=base.name,
        inputs=list(base.inputs),
        output=output,
        reference=fused,
        flops=base.flops + flops,
        shape=base.shape,
        reduce_extent=base.reduce_extent,
        params=dict(base.params),
        const_inputs=base.const_inputs,
        prologues={operand: product},
    )
