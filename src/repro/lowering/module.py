"""Lowered-program containers shared by the executor, analyzer and emitter."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..tir import Buffer, PrimExpr, Stmt, Var

__all__ = ["TransferSpec", "GridDim", "LoweredModule", "LowerOptions"]

TRANSFER_MODES = ("element", "bulk", "parallel")


@dataclass
class LowerOptions:
    """Knobs of lowering (the §5.3 level is not one of them: it gates
    the passes that run *after* lowering, ``PassContext.opt_level``).

    transfer_mode:
        ``element`` — one intrinsic call per element (Fig. 7b);
        ``bulk`` — coalesced contiguous chunks (Fig. 7c);
        ``parallel`` — rank-parallel bulk pushes (Fig. 7d, ATiM default).
    """

    transfer_mode: str = "parallel"

    def __post_init__(self) -> None:
        if self.transfer_mode not in TRANSFER_MODES:
            raise ValueError(f"transfer_mode must be one of {TRANSFER_MODES}")


@dataclass
class GridDim:
    """One DPU-grid dimension created by a ``blockIdx.*`` bind."""

    tag: str
    var: Var
    extent: int


@dataclass
class TransferSpec:
    """A host↔DPU transfer of one rectangular tile per DPU.

    ``base`` gives, per tensor dimension, the tile origin as an expression
    of the grid variables; ``shape`` is the (padded) tile extent.  The
    valid extent for a given DPU is ``min(shape_d, tensor_d - base_d)``.
    """

    direction: str  # "h2d" | "d2h"
    global_buffer: Buffer
    local_buffer: Buffer
    base: Tuple[PrimExpr, ...]
    shape: Tuple[int, ...]

    @property
    def tile_elems(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def tile_bytes(self) -> int:
        return self.tile_elems * self.global_buffer.elem_bytes


@dataclass
class LoweredModule:
    """The compiled form of one tensor program for the UPMEM target.

    Pieces (paper Fig. 5, step ③):

    * ``grid`` — DPU binding: one entry per ``blockIdx`` dimension.
    * ``kernel`` — per-DPU TIR, referencing MRAM tiles and WRAM caches.
    * ``transfers`` — host↔DPU data movement derived from the kernel's
      per-DPU regions (address calculation).
    * ``host_post`` — host-side statements (final reduction from
      ``rfactor``), executed after D2H.
    """

    name: str
    grid: List[GridDim]
    kernel: Stmt
    transfers: List[TransferSpec]
    host_pre: List[Stmt]
    host_post: List[Stmt]
    inputs: List[Buffer]
    outputs: List[Buffer]
    intermediates: List[Buffer] = field(default_factory=list)
    #: MRAM tiles written and read only inside the kernel (e.g. tasklet
    #: partials combined on-DPU) — allocated per DPU, never transferred.
    mram_internal: List[Buffer] = field(default_factory=list)
    wram_buffers: List[Buffer] = field(default_factory=list)
    # WRAM buffers allocated under the tasklet loop need one copy per
    # tasklet; maps buffer -> True when per-tasklet.
    wram_per_tasklet: Dict[Buffer, bool] = field(default_factory=dict)
    n_tasklets: int = 1
    options: LowerOptions = field(default_factory=LowerOptions)
    host_parallel_threads: int = 1
    #: Input tensor names placed in PIM memory once, outside the measured
    #: steady-state latency (weights / KV cache, paper §5.4).
    const_inputs: frozenset = frozenset()

    @property
    def n_dpus(self) -> int:
        n = 1
        for dim in self.grid:
            n *= dim.extent
        return n

    def grid_vars(self) -> List[Var]:
        return [dim.var for dim in self.grid]

    def wram_bytes_per_dpu(self) -> int:
        """Total WRAM footprint per DPU, counting per-tasklet privates."""
        total = 0
        for buf in self.wram_buffers:
            copies = self.n_tasklets if self.wram_per_tasklet.get(buf) else 1
            total += buf.nbytes * copies
        return total

    def local_bytes_per_dpu(self) -> int:
        """Bytes of DPU-local buffers one grid point holds in the
        functional simulator — MRAM tiles, MRAM-internal and WRAM
        buffers, one copy each: the working set of one vector lane.
        Worked out on the first call (every ``run_batch`` asks); a
        module is read-only once it runs."""
        nbytes = self.__dict__.get("_local_bytes")
        if nbytes is None:
            local = {spec.local_buffer for spec in self.transfers}
            local.update(self.mram_internal, self.wram_buffers)
            nbytes = max(1, sum(buf.nbytes for buf in local))
            self.__dict__["_local_bytes"] = nbytes
        return nbytes

    def transfer(self, direction: str) -> List[TransferSpec]:
        return [t for t in self.transfers if t.direction == direction]

    # A pickle holds the module, not what was derived from it: the
    # ``_``-prefixed entries (the local byte count, the vector plans and
    # host programs of ``repro.upmem.vectorize``) rebuild on first use.
    def __getstate__(self):
        return {
            name: value for name, value in self.__dict__.items()
            if not name.startswith("_")
        }
