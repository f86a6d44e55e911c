"""Buffers: typed, shaped memory regions with an explicit storage scope.

Scopes model the UPMEM memory hierarchy:

``global``
    Host DRAM (input/output tensors).
``mram``
    Per-DPU Main RAM — the DRAM bank owned by one DPU (64 MB).
``wram``
    Per-tasklet Working RAM scratchpad (64 KB shared per DPU).
``host``
    Host-side temporaries (e.g. partial-reduction buffers).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .expr import IntImm, PrimExpr, as_expr

__all__ = ["Buffer", "SCOPES", "dtype_bytes"]

SCOPES = ("global", "mram", "wram", "host")

_DTYPE_BYTES = {
    "int8": 1,
    "uint8": 1,
    "int16": 2,
    "int32": 4,
    "int64": 8,
    "float32": 4,
    "float64": 8,
    "bool": 1,
}


def dtype_bytes(dtype: str) -> int:
    """Size in bytes of one element of ``dtype``."""
    try:
        return _DTYPE_BYTES[dtype]
    except KeyError:
        raise ValueError(f"unknown dtype {dtype!r}") from None


class Buffer:
    """A shaped, typed memory region.

    Shapes are static (the paper targets static tensor shapes); they are
    stored as plain Python ints.  Buffers are identity-hashed so they can be
    used as dictionary keys throughout the compiler.
    """

    __slots__ = ("name", "shape", "dtype", "scope", "producer")

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        dtype: str = "float32",
        scope: str = "global",
    ) -> None:
        if scope not in SCOPES:
            raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
        if not shape:
            raise ValueError("buffers must have at least one dimension")
        self.name = name
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise ValueError(f"buffer {name!r} has non-positive extent: {self.shape}")
        dtype_bytes(dtype)  # validate
        self.dtype = dtype
        self.scope = scope
        #: The ``te.Tensor`` declared over this buffer, if any.  A
        #: compute body reaches its inputs only as buffer loads, so the
        #: buffer is what keeps an input's operation alive and findable
        #: — for exactly as long as something still loads from it.
        self.producer = None

    def __reduce__(self):
        # Compile artifacts pickle the memory region, never the tensor
        # expression graph that declared it.
        return Buffer, (self.name, self.shape, self.dtype, self.scope)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        """Number of elements."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.size * dtype_bytes(self.dtype)

    @property
    def elem_bytes(self) -> int:
        return dtype_bytes(self.dtype)

    def flat_index(self, indices: Sequence[PrimExpr]) -> PrimExpr:
        """Row-major linearization of ``indices`` (for address calculation)."""
        if len(indices) != self.ndim:
            raise ValueError(
                f"buffer {self.name!r} is {self.ndim}-D, got {len(indices)} indices"
            )
        flat: PrimExpr = IntImm(0)
        for extent, idx in zip(self.shape, indices):
            flat = flat * extent + as_expr(idx)
        return flat

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"Buffer({self.name}: {self.dtype}[{dims}] @{self.scope})"
