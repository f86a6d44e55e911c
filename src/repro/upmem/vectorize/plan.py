"""The kernel plan: a module's offload sequence over a lane axis, and the
geometry it keeps per chunk shape.

A plan compiles the kernel only if it stays inside the model the paper's
host/kernel split rests on: a DPU addresses its own MRAM and WRAM, never
a host tensor.  A kernel that loads, stores or DMAs any buffer that is
not a lane's own — nothing the lowering emits — raises
:class:`VectorizeError` when the plan is built, naming the statement kind
and the buffer, and no plan is kept.  The scalar reference
(``REPRO_SIM_MODE=scalar``) still runs it.

What a call recomputes
----------------------
ATiM fixes the host side of an offload when the program is generated:
which tile of which tensor each DPU receives, which DPUs sit on a tensor
edge.  So does the plan.  Lane ``i * G + g`` is grid point ``g``
whatever the item, so the pair *(grid point of a chunk's first lane,
lane count)* — its **chunk shape** — fixes every lane's coordinates,
and with them everything about a transfer except the bytes.  A plan
keeps one :class:`_Chunk` per chunk shape, built by the first call that
needs it (there is no second path: that call runs the same code and
leaves the entry behind):

* **resident** — the lane-variable arrays and ``arange(L)``; the lane
  range of each item the chunk spans; per transfer a :class:`_Placement`
  (origin, box, extent, partial mask) and what it has worked out: the
  window-view shape per tensor shape, the origin tuples of a lane range,
  where a range turns from whole to partial lanes, and the boundary
  lanes' element index / validity arrays.  Every resident array is
  read-only.  Also decided once, when the plan is built: an access index
  that is an ``IntImm`` inside its dimension (``expr._immediates``) and
  a DMA base that is one;
* **per call** — the window *view* (``as_strided`` over this call's
  array, with this call's strides: a transposed or sliced input is a
  different view of the same shape), which neighbouring items bind the
  same array object, every buffer a chunk starts zeroed, the copies, and
  every test whose outcome can depend on data or on a loop variable:
  ``_clamp`` on lane- and loop-dependent indices, ``InterpError`` for a
  live position outside its buffer, ``prepare``'s shape / dtype /
  missing-input errors.  ``REPRO_MAX_WORKERS`` and ``REPRO_SIM_MODE``
  are read per call too — tests set them mid-process.

The table is bounded like the plan cache: :data:`_CHUNK_SHAPES` entries
per plan, oldest dropped first, and :data:`_ELEMENT_BYTES` of
boundary-lane indices across them (past that they are rebuilt per call,
as they always were); it is dropped with its plan.  A chunk whose
geometry raises while being built is not kept, so the error repeats on
every call.  Under ``REPRO_SIM_MODE=verify`` a chunk served from the
table is first rebuilt and compared field for field
(:meth:`KernelPlan.check_invariants`).
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ...lowering import LoweredModule, TransferSpec
from ...tir import Buffer, StmtVisitor
from ..interp import _np_dtype
from .expr import VectorizeError, _clamp, _Ctx, _ExprCompiler
from .ops import _StmtCompiler
from .staging import _normalise


#: Bytes of per-lane buffers one chunk of :meth:`KernelPlan.run_points`
#: may stack: longer lane ranges run as several chunks.
_LANE_BUDGET_BYTES = 256 * 1024 * 1024


class _HostAccess(StmtVisitor):
    """Raises at the first load, store or DMA of a buffer outside
    ``batched`` (a lane's own MRAM tiles and WRAM): a host tensor, which
    a DPU cannot address."""

    def __init__(self, name: str, batched) -> None:
        self.name, self.batched = name, batched

    def _check(self, kind: str, *buffers: Buffer) -> None:
        for buf in buffers:
            if buf not in self.batched:
                raise VectorizeError(
                    f"{self.name}: {kind} of host buffer {buf.name!r} in the"
                    " kernel; a DPU addresses its own MRAM and WRAM only"
                )

    def visit_BufferLoad(self, node) -> None:
        self._check("BufferLoad", node.buffer)

    def visit_BufferStore(self, node) -> None:
        self._check("BufferStore", node.buffer)

    def visit_DmaCopy(self, node) -> None:
        self._check("DmaCopy", node.dst, node.src)


class KernelPlan:
    """Compiled batched execution of a module's per-DPU offload sequence.

    The lane axis is the *lane space* of a batch of executions of the
    program: item-major, one lane per (item, grid point) — lane
    ``i * G + g`` is grid point ``g`` of item ``i``, and a lone ``run``
    is the batch of one.  The kernel op tree runs once over ``(L, ...)``
    batched local buffers.  Chunks the lane axis to bound peak memory.

    Transfers split a chunk's lanes into *interior* and *boundary*
    (:class:`_Placement`): a lane whose tile lies wholly on its item's
    host tensor is interior, and all interior lanes of a tensor move as
    one block — H2D as one gather of tensor windows, which *is* the
    ``(L, *tile)`` local buffer (no zero fill, no index, no mask), D2H as
    one scatter in lane order; only lanes whose tile crosses a tensor
    edge are filled and written back element by element, zero-padded and
    masked as the scalar executor does per grid point.

    Which lanes those are is the program's, not the call's: the plan
    keeps one :class:`_Chunk` per chunk shape (see "What a call
    recomputes" in the module docstring).
    """

    def __init__(self, module: LoweredModule) -> None:
        self.module = module
        self.lane_vars = set(module.grid_vars())
        self.batched = {s.local_buffer for s in module.transfers}
        self.batched |= set(module.mram_internal)
        self.batched |= set(module.wram_buffers)
        _HostAccess(module.name, self.batched).visit_stmt(module.kernel)
        ec = _ExprCompiler(self)
        #: Per transfer, in module order: its spec, its tile-origin
        #: functions, and the dtype of a lane's tile.
        self._transfers = [
            (
                spec,
                [ec.compile(b)[0] for b in spec.base],
                _np_dtype(spec.local_buffer),
            )
            for spec in module.transfers
        ]
        #: Buffers a chunk starts zeroed besides its D2H tiles.
        self._zeroed = [
            (buf, tuple(buf.shape), _np_dtype(buf))
            for buf in (*module.mram_internal, *module.wram_buffers)
        ]
        #: The kernel as compiled, and how many staging bursts it reads
        #: through / block loops it folded (see :func:`_normalise`).
        self.kernel, self.forwarded, self.folded = _normalise(module)
        self.kernel_op = _StmtCompiler(self).compile(self.kernel)
        self._bytes_per_lane = module.local_bytes_per_dpu()
        #: Grid coordinates in canonical (row-major) order, one row per
        #: grid point: what a lane's position inside its item selects.
        points = list(
            itertools.product(*[range(dim.extent) for dim in module.grid])
        )
        self._grid = np.array(points, dtype=np.int64).reshape(
            len(points), len(module.grid)
        )
        #: ``(first lane's grid point, lanes)`` -> :class:`_Chunk`, oldest
        #: first; at most :data:`_CHUNK_SHAPES` of them, holding at most
        #: :data:`_ELEMENT_BYTES` of boundary-lane indices between them.
        self._chunks: Dict[Tuple[int, int], _Chunk] = {}
        self._element_bytes = 0
        self._lock = threading.Lock()  # inserts, evictions, the byte count

    @property
    def fallbacks(self) -> tuple:
        """Always empty: every statement runs in the op tree, and a kernel
        the op tree cannot run is refused when the plan is built.  The
        benchmark's ``upmem.fallbacks`` counter still reads it."""
        return ()

    # -- driving ------------------------------------------------------------
    def max_lanes(self, total: int) -> int:
        return max(1, min(total, _LANE_BUDGET_BYTES // self._bytes_per_lane))

    def _cuts(self, lanes: range):
        """``lanes`` as the ``(lo, hi)`` chunks :meth:`run_points` runs."""
        cap = self.max_lanes(len(lanes))
        lo = lanes.start
        while lo < lanes.stop:
            hi = min(lo + cap, lanes.stop)
            yield lo, hi
            lo = hi

    def run_points(
        self,
        states: Sequence[Dict[Buffer, np.ndarray]],
        lanes: range,
    ) -> None:
        """Execute ``lanes`` of the lane space of the prepared ``states``
        (one ``Buffer -> array`` dict per batch item)."""
        for lo, hi in self._cuts(lanes):
            self._run_chunk(states, lo, hi)

    def _run_chunk(self, states, lo: int, hi: int) -> None:
        L = hi - lo
        grid = len(self._grid)
        chunk = self._chunk(lo % grid, L)
        # (state, first lane, end lane) of every item the chunk touches,
        # lane numbers relative to the chunk.
        item = lo // grid
        runs = [
            (states[item + j], a, b) for j, (a, b) in enumerate(chunk.items)
        ]
        # The op tree sees the lanes' own buffers only: the plan refused
        # any kernel that addresses a host tensor.
        bufs: Dict[Buffer, np.ndarray] = {}
        ctx = _Ctx(bufs, chunk.lane_vals, L, chunk.lanes)
        for (spec, _, dtype), place in zip(self._transfers, chunk.places):
            shape = (L,) + place.tile
            bufs[spec.local_buffer] = (
                self._fill(runs, spec, place, shape, dtype)
                if spec.direction == "h2d"
                else np.zeros(shape, dtype)
            )
        for buf, shape, dtype in self._zeroed:
            bufs[buf] = np.zeros((L,) + shape, dtype)
        self.kernel_op.run(ctx)
        for (spec, _, _), place in zip(self._transfers, chunk.places):
            if spec.direction == "d2h":
                self._writeback(runs, spec, place, bufs[spec.local_buffer])

    # -- what a chunk shape fixes -------------------------------------------
    def _chunk(self, first: int, L: int) -> "_Chunk":
        """The resident geometry of a chunk of ``L`` lanes whose first
        lane is grid point ``first``; built, and kept, on first use."""
        key = (first, L)
        chunk = self._chunks.get(key)
        if chunk is None:
            chunk = self._build_chunk(first, L)  # may raise: nothing kept
            with self._lock:
                chunk = self._chunks.setdefault(key, chunk)
                while len(self._chunks) > _CHUNK_SHAPES:
                    del self._chunks[next(iter(self._chunks))]
                    self._element_bytes = sum(
                        place.held
                        for kept in self._chunks.values()
                        for place in kept.places
                    )
        return chunk

    def _build_chunk(self, first: int, L: int) -> "_Chunk":
        grid = len(self._grid)
        pts = self._grid[np.arange(first, first + L) % grid]
        lane_vals = {
            v: _frozen(np.ascontiguousarray(pts[:, d]))
            for d, v in enumerate(self.module.grid_vars())
        }
        lanes = _frozen(np.arange(L))
        items = [
            (max(0, i * grid - first), min(L, (i + 1) * grid - first))
            for i in range((first + L - 1) // grid + 1)
        ]
        ctx = _Ctx({}, lane_vals, L, lanes)
        places = [
            _Placement(L, spec, [f(ctx) for f in base_fns])
            for spec, base_fns, _ in self._transfers
        ]
        return _Chunk(lane_vals, lanes, items, places)

    def check_invariants(self, lanes: Optional[range] = None) -> List[str]:
        """Audit the resident chunk geometry against a fresh build.

        Every chunk shape in the table — or, given ``lanes``, every one
        :meth:`run_points` would serve that range from — is built again
        from the program and compared field for field, arrays bitwise,
        memoised indices included.  Returns one line per difference,
        naming the transfer and the chunk shape; ``[]`` is a clean
        table.  ``REPRO_SIM_MODE=verify`` runs it before every call.
        """
        if lanes is None:
            keys = list(self._chunks)
        else:
            grid = len(self._grid)
            keys = [(lo % grid, hi - lo) for lo, hi in self._cuts(lanes)]
        problems: List[str] = []
        for key in keys:
            kept = self._chunks.get(key)
            if kept is None:
                continue
            fresh = self._build_chunk(*key)
            where = f"chunk shape (first grid point {key[0]}, {key[1]} lanes)"
            for what in kept.differences(fresh):
                problems.append(f"{self.module.name}: {what} of {where}")
        return problems

    # -- transfers ----------------------------------------------------------
    @staticmethod
    def _tensor_runs(runs, buffer):
        """``runs`` as (host tensor, first lane, end lane), neighbouring
        items that bind the same array object merged into one run."""
        merged: List[list] = []
        for state, a, b in runs:
            arr = state[buffer]
            if merged and merged[-1][0] is arr:
                merged[-1][2] = b
            else:
                merged.append([arr, a, b])
        return merged

    def _elements(self, place: "_Placement", kind: str, a: int, b: int):
        """``place``'s checked form for its partial lanes in ``a:b`` —
        ``kind`` is ``"gather"`` (H2D) or ``"scatter"`` (D2H), the
        :class:`_Placement` method that builds it — kept with the
        placement while the plan's byte budget lasts."""
        key = (kind, a, b)
        hit = place.elements_of.get(key)
        if hit is None:
            hit, nbytes = getattr(place, kind)(a, b)
            with self._lock:
                if (
                    self._element_bytes + nbytes <= _ELEMENT_BYTES
                    and key not in place.elements_of
                ):
                    place.elements_of[key] = hit
                    place.held += nbytes
                    self._element_bytes += nbytes
        return hit

    def _fill(self, runs, spec, place, shape, dtype) -> np.ndarray:
        """Every lane's H2D tile, zero-padded where it leaves the tensor."""
        if place.empty:
            return np.zeros(shape, dtype)
        sources = self._tensor_runs(runs, spec.global_buffer)
        if place.all_partial:
            tile = np.zeros(shape, dtype)
        elif place.full and len(sources) == 1:
            # The block gather *is* the tile: no zero fill, no copy.
            tile = np.ascontiguousarray(
                place.windows(sources[0][0])[place.index(0, shape[0])]
            )
        else:
            tile = np.zeros(shape, dtype)
            for src, a, b in sources:
                tile[(slice(a, b),) + place.box] = place.windows(src)[
                    place.index(a, b)
                ]
        if place.partial is not None:
            # Lanes on a tensor edge were gathered from a window pulled
            # inside it; redo their rows element by element.
            for src, a, b in sources:
                lanes, idxs, valid = self._elements(place, "gather", a, b)
                if len(lanes):
                    tile[lanes] = np.where(valid, src[idxs], 0)
        return tile

    def _writeback(self, runs, spec, place, tile) -> None:
        """D2H: every lane's tile back onto its tensor, in lane order —
        tiles may overlap (``va``'s 544-wide tiles sit 512 apart) and the
        scalar path's last writer must stay the last writer."""
        if place.empty:
            return
        for dst, a, b in self._tensor_runs(runs, spec.global_buffer):
            for x, y, partial in place.spans(a, b):
                if not partial:
                    place.windows(dst, writeable=True)[place.index(x, y)] = (
                        tile[(slice(x, y),) + place.box]
                    )
                    continue
                idxs, valid = self._elements(place, "scatter", x, y)
                dst[idxs] = tile[x:y][valid]


#: Chunk shapes a plan keeps geometry for (oldest dropped first): one per
#: batch size a program is called at, two when a job boundary cuts it.
_CHUNK_SHAPES = 32

#: Bytes of boundary-lane element indices a plan keeps across all its
#: chunk shapes; past it they are rebuilt per call, as they always were.
#: The benchmark's programs hold under 100 KB each (a trimmed ``va``:
#: 8 edge lanes x 544 elements).
_ELEMENT_BYTES = 1024 * 1024


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, read-only: resident arrays are shared by every call."""
    arr.flags.writeable = False
    return arr


def _same(a, b) -> bool:
    """Field equality for the audit: arrays bitwise (dtype and shape
    too), containers element by element, anything else by ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_same(v, b[k]) for k, v in a.items())
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


class _Chunk:
    """What a chunk's shape — the grid point of its first lane and its
    lane count — fixes for every call: each lane's grid coordinates, the
    lane ranges of the items it spans, and one :class:`_Placement` per
    transfer."""

    __slots__ = ("lane_vals", "lanes", "items", "places")

    def __init__(self, lane_vals, lanes, items, places) -> None:
        self.lane_vals = lane_vals  # Var -> (L,) int64
        self.lanes = lanes  # arange(L)
        self.items = items  # [(first lane, end lane)] per item spanned
        self.places = places  # in ``module.transfers`` order

    def differences(self, fresh: "_Chunk") -> List[str]:
        """What of this (resident) chunk is not as in ``fresh``."""
        out = [
            what
            for what, field in (
                ("lane coordinates", "lane_vals"),
                ("lane numbers", "lanes"),
                ("item ranges", "items"),
            )
            if not _same(getattr(self, field), getattr(fresh, field))
        ]
        for kept, new in zip(self.places, fresh.places):
            spec = kept.spec
            name = f"{spec.direction} transfer of {spec.global_buffer.name}"
            out += [f"{what} of the {name}" for what in kept.differences(new)]
        return out


class _Placement:
    """Where the lanes of a chunk put one transfer's tile on its tensor.

    The lowering makes a tile origin affine in the grid, so per tensor
    dimension it is either one number for the whole chunk or an ``(L,)``
    array.  A dimension of the first kind is cut once, for every lane,
    to the part of the tile that lies on the tensor (``box``; a padded
    tile such as 16 columns over a 12-column tensor is still one block).
    A dimension of the second kind is tested per *lane*, on the origin:
    a lane whose tile fits (``0 <= origin <= dim - extent``) is *whole*
    and moves as a block — one window of the tensor, no index, no mask —
    and only the rest (``partial``: the lanes on a tensor edge) take the
    checked path, element by element.

    A placement is a function of the program and the chunk shape alone,
    and lives as long as its :class:`_Chunk`; what it works out on the
    way — window shapes, lane-range indices, spans, the edge lanes'
    element indices — it keeps.  A call brings the arrays.
    """

    __slots__ = (
        "spec", "bases", "origin", "box", "extent", "partial", "tile",
        "empty", "full", "window_shapes", "indices", "cuts", "elements_of",
        "held", "_all_partial",
    )

    def __init__(self, L: int, spec: TransferSpec, bases) -> None:
        self.spec, self.bases = spec, bases
        origin, lo, hi = [], [], []
        partial = None  # (L,) bool once some lane is off an edge
        for b, ext, dim in zip(bases, spec.shape, spec.global_buffer.shape):
            if isinstance(b, np.ndarray):
                if ext > dim:  # no window of this extent exists
                    moved = np.ones(L, bool)
                else:
                    b, moved = _clamp(b, dim - ext + 1)
                if moved is not None:
                    partial = moved if partial is None else partial | moved
                lo.append(0)
                hi.append(ext)
            else:
                b = int(b)
                lo.append(min(max(-b, 0), ext))
                hi.append(max(min(ext, dim - b), lo[-1]))
                b += lo[-1]
            origin.append(b)
        if not any(isinstance(o, np.ndarray) for o in origin):
            origin[0] = np.full(L, origin[0])  # gathers need a lane axis
        for arr in (*bases, *origin, partial):
            if isinstance(arr, np.ndarray):
                _frozen(arr)
        #: Window origin on the tensor per dimension; an edge lane's is
        #: pulled inside, so that one gather may cover the whole chunk.
        self.origin = origin
        self.box = tuple(slice(l, h) for l, h in zip(lo, hi))
        self.extent = tuple(h - l for l, h in zip(lo, hi))
        self.partial = partial
        self._all_partial: Optional[bool] = None
        self.tile = tuple(spec.shape)
        #: No lane's tile touches the tensor at all.
        self.empty = 0 in self.extent
        self.full = self.extent == self.tile
        self.window_shapes: Dict[tuple, tuple] = {}  # tensor shape -> view's
        self.indices: Dict[Tuple[int, int], tuple] = {}
        self.cuts: Dict[Tuple[int, int], list] = {}
        #: ``(a, b, scatter)`` -> checked form; filled by the plan, which
        #: counts ``held`` bytes against its budget.
        self.elements_of: Dict[tuple, tuple] = {}
        self.held = 0

    @property
    def all_partial(self) -> bool:
        """Every lane is on a tensor edge: there is no block to move."""
        if self._all_partial is None:
            self._all_partial = self.partial is not None and bool(
                self.partial.all()
            )
        return self._all_partial

    def window_shape(self, tensor: tuple) -> tuple:
        """Shape of :meth:`windows` over an array of shape ``tensor``."""
        shape = self.window_shapes.get(tensor)
        if shape is None:
            free = tuple(d - e + 1 for d, e in zip(tensor, self.extent))
            shape = self.window_shapes[tensor] = free + self.extent
        return shape

    def windows(self, arr: np.ndarray, writeable: bool = False):
        """Every placement of the box on ``arr``, as a view indexed by
        origin: shape ``(dim - extent + 1, ...) + extent``.  The shape
        is the tensor shape's; the strides are this array's."""
        return as_strided(
            arr,
            self.window_shape(arr.shape),
            arr.strides * 2,
            writeable=writeable,
        )

    def index(self, a: int, b: int) -> tuple:
        """The window of each of lanes ``a:b``."""
        at = self.indices.get((a, b))
        if at is None:
            at = self.indices[a, b] = tuple(
                o[a:b] if isinstance(o, np.ndarray) else o
                for o in self.origin
            )
        return at

    def spans(self, a: int, b: int) -> list:
        """Lanes ``a:b`` cut where they turn from whole to partial or
        back: ``(first lane, end lane, partial)`` in lane order."""
        if self.partial is None:
            return [(a, b, False)]
        out = self.cuts.get((a, b))
        if out is None:
            part = self.partial[a:b]
            flips = (np.flatnonzero(part[1:] != part[:-1]) + a + 1).tolist()
            edges = [a, *flips, b]
            out = self.cuts[a, b] = [
                (x, y, bool(self.partial[x])) for x, y in zip(edges, edges[1:])
            ]
        return out

    def elements(self, lanes: np.ndarray):
        """The checked form, for ``lanes`` only: per-dimension tensor
        index of every tile element (clamped), each broadcast to
        ``(len(lanes),) + tile shape``, which elements are on the
        tensor, and the bytes under those broadcasts."""
        spec = self.spec
        nd = len(spec.shape)
        shape = (len(lanes),) + tuple(spec.shape)
        idxs, valid, nbytes = [], np.True_, 0
        for d, (b, ext, dim) in enumerate(
            zip(self.bases, spec.shape, spec.global_buffer.shape)
        ):
            k = np.arange(ext).reshape(
                (1,) * (d + 1) + (ext,) + (1,) * (nd - d - 1)
            )
            if isinstance(b, np.ndarray):
                b = b[lanes].reshape((-1,) + (1,) * nd)
            i, moved = _clamp(b + k, dim)
            if moved is not None:
                valid = valid & ~moved
            nbytes += i.nbytes
            idxs.append(np.broadcast_to(i, shape))
        nbytes += np.asarray(valid).nbytes
        return tuple(idxs), np.broadcast_to(valid, shape), nbytes

    def gather(self, a: int, b: int):
        """H2D: ``(lanes, index, valid)`` of the partial lanes in
        ``a:b`` — ``where(valid, tensor[index], 0)`` is their tiles —
        and the bytes it holds."""
        lanes = np.flatnonzero(self.partial[a:b]) + a
        idxs, valid, nbytes = self.elements(lanes)
        return (lanes, idxs, valid), nbytes + lanes.nbytes

    def scatter(self, a: int, b: int):
        """D2H: ``(index, valid)`` of lanes ``a:b``, all partial —
        ``tensor[index] = tile[a:b][valid]`` — and the bytes it holds."""
        idxs, valid, _ = self.elements(np.arange(a, b))
        idxs = tuple(i[valid] for i in idxs)
        valid = np.ascontiguousarray(valid)
        return (idxs, valid), sum(i.nbytes for i in idxs) + valid.nbytes

    #: What the audit compares: the placement and everything it keeps.
    AUDITED = (
        "origin", "box", "extent", "partial", "tile", "empty", "full",
        "window_shapes", "indices", "cuts", "elements_of",
    )

    def differences(self, fresh: "_Placement") -> List[str]:
        """Fields in which this (resident) placement is not ``fresh``,
        once ``fresh`` has worked out everything this one keeps."""
        for tensor in list(self.window_shapes):
            fresh.window_shape(tensor)
        for a, b in list(self.indices):
            fresh.index(a, b)
        for a, b in list(self.cuts):
            fresh.spans(a, b)
        for key in list(self.elements_of):
            kind, a, b = key
            fresh.elements_of[key], _ = getattr(fresh, kind)(a, b)
        return [
            field
            for field in self.AUDITED
            if not _same(getattr(self, field), getattr(fresh, field))
        ]
