"""Properties of the vector runtime's structured memory access.

Two families of generated modules, built directly in TIR:

* transfers — tile origins ``coef * grid + const`` per tensor dimension
  (overlapping, exact and strided tilings; origins before the tensor and
  past its end), cut into chunks that ignore grid and item boundaries,
  over one to three stacked items.  The block path (whole lanes move as
  one window gather/scatter) must produce the bytes of the checked path
  run on *every* lane, and of the scalar interpreter;
* axis-affine accesses — ``T[cs*k + ds] = S[cl*k + dl]`` maps and
  reductions with lane-dependent trip counts under a lane mask.  Vector
  and scalar must agree on every byte, or both raise ``InterpError``.

And one on the reduction fold itself: ``vectorize._fold`` against
``np.add.accumulate``'s prefix at each lane's stop, on generated scan
buffers full of the float values a fold can get wrong.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lowering import GridDim, LoweredModule, TransferSpec
from repro.tir import (
    Buffer,
    BufferLoad,
    BufferStore,
    For,
    IfThenElse,
    IntImm,
    Min,
    SeqStmt,
    Var,
)
from repro.upmem import FunctionalExecutor
from repro.upmem import vectorize
from repro.upmem.interp import InterpError

# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------

_DIMS = st.sampled_from([1, 2, 3, 5, 6, 7, 9, 11, 13])  # few powers of two
#: Half the origins sit on the grid; the rest start before the tensor or
#: push the last tiles over (or wholly past) its end.
_CONSTS = st.sampled_from([0, 0, 0, 0, 1, 2, 3, -1, -2])


@st.composite
def _origins(draw, nd, tile, n_grid):
    """Per tensor dimension ``(grid axis or None, coef, const)``."""
    out = []
    for d in range(nd):
        axis = draw(st.one_of(st.none(), st.integers(0, n_grid - 1)))
        # coef <, == and > the tile extent: overlapping, exact, strided
        coef = draw(st.integers(1, tile[d] + 1)) if axis is not None else 0
        const = draw(_CONSTS)
        out.append((axis, coef, const))
    return out


@st.composite
def _transfer_case(draw):
    nd = draw(st.integers(1, 3))
    shape = tuple(draw(_DIMS) for _ in range(nd))
    tile = tuple(draw(st.integers(1, 3)) for _ in range(nd))
    grid = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 2))))
    h2d = draw(_origins(nd, tile, len(grid)))
    d2h = draw(_origins(nd, tile, len(grid)))
    n_items = draw(st.integers(1, 3))
    # item i runs on state share[i]: a repeat stacks the same host arrays
    share = [draw(st.integers(0, i)) for i in range(n_items)]
    lanes = n_items * int(np.prod(grid))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, lanes - 1)), max_size=3)))
    return shape, tile, grid, h2d, d2h, share, [c for c in cuts if c < lanes]


def _transfer_module(shape, tile, grid, h2d, d2h):
    """Every DPU copies its H2D tile to its D2H tile, plus 1000 x its own
    number — so where D2H tiles overlap, the bytes say who wrote last.
    (Whole numbers below 2**24: exact in float32 and float64 alike.)"""
    gvars = [Var(f"g{i}") for i in range(len(grid))]
    src = Buffer("In", shape, "float32")
    dst = Buffer("Out", shape, "float32")
    src_m = Buffer("In_m", tile, "float32", scope="mram")
    dst_m = Buffer("Out_m", tile, "float32", scope="mram")

    def base(origins):
        return tuple(
            IntImm(const) if axis is None else gvars[axis] * coef + const
            for axis, coef, const in origins
        )

    dpu = IntImm(0)
    for g, extent in zip(gvars, grid):
        dpu = dpu * extent + g
    loops = [Var(f"t{d}") for d in range(len(tile))]
    body = BufferStore(dst_m, BufferLoad(src_m, loops) + dpu * 1000.0, loops)
    for var, extent in reversed(list(zip(loops, tile))):
        body = For(var, extent, body)
    return LoweredModule(
        name="transfers",
        grid=[GridDim(f"blockIdx.{i}", g, e)
              for i, (g, e) in enumerate(zip(gvars, grid))],
        kernel=body,
        transfers=[
            TransferSpec("h2d", src, src_m, base(h2d), tile),
            TransferSpec("d2h", dst, dst_m, base(d2h), tile),
        ],
        host_pre=[], host_post=[], inputs=[src], outputs=[dst],
    ), dst


def _run_pieces(module, out, mode, shape, share, cuts):
    fexec = FunctionalExecutor(module, mode=mode)
    feeds = [
        (np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape) + 1)
        * (i + 1)
        for i in range(max(share) + 1)
    ]
    prepared = [fexec.prepare({"In": feed}) for feed in feeds]
    states = [prepared[i] for i in share]
    lanes = len(share) * module.n_dpus
    edges = [0, *cuts, lanes]
    for lo, hi in zip(edges, edges[1:]):
        fexec.run_points(states, range(lo, hi))
    return b"".join(state[out].tobytes() for state in prepared)


def _every_lane_checked(monkeypatch):
    """Make every lane of every placement partial: the parent's path."""
    init = vectorize._Placement.__init__

    def all_partial(self, L, spec, bases):
        init(self, L, spec, bases)
        self.partial = np.ones(L, bool)

    monkeypatch.setattr(vectorize._Placement, "__init__", all_partial)
    # Placements are resident per plan: a plan built under the patch.
    monkeypatch.setattr(vectorize, "_PLANS", type(vectorize._PLANS)())


@settings(max_examples=200, deadline=None)
@given(case=_transfer_case())
def test_block_transfers_equal_checked_and_scalar(case):
    shape, tile, grid, h2d, d2h, share, cuts = case
    module, out = _transfer_module(shape, tile, grid, h2d, d2h)
    block = _run_pieces(module, out, "vector", shape, share, cuts)
    with pytest.MonkeyPatch.context() as mp:
        _every_lane_checked(mp)
        checked = _run_pieces(module, out, "vector", shape, share, cuts)
    assert block == checked
    # The scalar executor slices ``src[base : base + valid]``, which for
    # a negative base is NumPy's wrap-around, not a tile origin: it is
    # the reference wherever the origin is on or past the tensor.
    if all(const >= 0 for _, _, const in h2d + d2h):
        scalar = _run_pieces(module, out, "scalar", shape, share, cuts)
        assert block == scalar


def test_origin_before_the_tensor_is_padding():
    """What the two vector paths agree on above, spelled out once: tile
    elements left of the tensor read as zero and are not written."""
    module, out = _transfer_module(
        (5,), (3,), (3,), [(0, 2, -2)], [(0, 2, -1)]
    )
    got = _run_pieces(module, out, "vector", (5,), [0], [])
    #   lane 0 reads [_, _, 1], lane 1 [1, 2, 3], lane 2 [3, 4, 5]
    #   writes at -1, 1, 3: [_,0,1] -> [0,1]; [1001..] ; [2003..]
    want = np.array([0, 1001, 1002, 2003, 2004], np.float32)
    assert got == want.tobytes()


# ---------------------------------------------------------------------------
# axis-affine loads and stores
# ---------------------------------------------------------------------------

_COEFFS = st.sampled_from([1, -1, 2, -2, 3])
_LANES = 5


def _axis_module(kind, size, trips, cl, dl, cs, ds, lane_trips, masked):
    """Lane ``b`` sees ``In[b : b + size]`` (so lanes differ without an
    integer lane variable entering float arithmetic) and either copies
    ``S[cl*k + dl]`` to ``O[cs*k + ds]`` or sums ``S[cl*k + dl] * S[k]``
    into one cell of ``O``."""
    b, k = Var("b"), Var("k")
    src = Buffer("In", (size + _LANES,), "float32")
    out = Buffer("Out", (_LANES, size), "float32")
    s_m = Buffer("S_m", (size,), "float32", scope="mram")
    o_m = Buffer("O_m", (1, size), "float32", scope="mram")
    extent = Min(IntImm(trips), b + lane_trips) if lane_trips else IntImm(trips)
    load = BufferLoad(s_m, [k * cl + dl])
    if kind == "map":
        body = BufferStore(o_m, load * 2.0, [IntImm(0), k * cs + ds])
    else:
        cell = [IntImm(0), IntImm(ds % size)]
        body = BufferStore(
            o_m, BufferLoad(o_m, cell) + load * BufferLoad(s_m, [k]), cell
        )
    kernel = For(k, extent, body)
    if masked:
        kernel = IfThenElse(b * 2 < _LANES + 1, kernel)
    return LoweredModule(
        name="axis",
        grid=[GridDim("blockIdx.x", b, _LANES)],
        kernel=kernel,
        transfers=[
            TransferSpec("h2d", src, s_m, (b,), (size,)),
            TransferSpec("d2h", out, o_m, (b, IntImm(0)), (1, size)),
        ],
        host_pre=[], host_post=[], inputs=[src], outputs=[out],
    )


def _outcome(module, mode, feed):
    try:
        out, = FunctionalExecutor(module, mode=mode).run(feed)
    except InterpError:
        return InterpError
    return out.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["map", "reduce"]),
    size=st.integers(4, 12),
    trips=st.integers(1, 6),
    cl=_COEFFS, dl=st.integers(-2, 12),
    cs=_COEFFS, ds=st.integers(-2, 12),
    lane_trips=st.integers(0, 3),
    masked=st.booleans(),
)
def test_axis_affine_access_equals_scalar(
    kind, size, trips, cl, dl, cs, ds, lane_trips, masked
):
    module = _axis_module(kind, size, trips, cl, dl, cs, ds, lane_trips, masked)
    feed = {"In": np.linspace(0.5, 7.25, size + _LANES).astype(np.float32)}
    assert _outcome(module, "vector", feed) == _outcome(module, "scalar", feed)


@pytest.mark.parametrize("shift", [1, -1, 2])
def test_store_from_a_view_of_its_own_target(shift):
    """``B[k] = B[k + 1]`` reads ahead of what it writes, ``B[k + 1] =
    B[k]`` smears ``B[0]`` down the row: a block-form load is a *view*
    of ``B``, and neither order may see the other's half-done row."""
    b, k = Var("b"), Var("k")
    out = Buffer("Out", (3, 6), "float32")
    row = Buffer("B", (1, 6), "float32", scope="mram")
    at = (lambda e: [IntImm(0), e])
    lo = max(0, -shift)
    kernel = SeqStmt([
        For(k, 6, BufferStore(row, k * 2.0 + b, at(k))),
        For(k, 6 - abs(shift), BufferStore(
            row, BufferLoad(row, at(k + lo + shift)), at(k + lo))),
    ])
    module = LoweredModule(
        name="alias", grid=[GridDim("blockIdx.x", b, 3)], kernel=kernel,
        transfers=[TransferSpec("d2h", out, row, (b, IntImm(0)), (1, 6))],
        host_pre=[], host_post=[], inputs=[], outputs=[out],
    )
    scalar = _outcome(module, "scalar", {})
    assert isinstance(scalar, bytes)
    assert _outcome(module, "vector", {}) == scalar


# ---------------------------------------------------------------------------
# the reduction fold
# ---------------------------------------------------------------------------

#: Every float class a fold can meet: signed zeros, infinities, NaN of
#: both signs, subnormals and the float32 extremes.
_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45,
             3.4e38, -3.4e38)


def _scan_buffer(dtype, lanes, width, seed, special_share, zero_lanes):
    """``(lanes, width + 1)``: an accumulator, then ``width`` summands."""
    rng = np.random.default_rng(seed)
    shape = (lanes, width + 1)
    if dtype == np.int32:
        return rng.integers(-2**31, 2**31, shape, dtype=np.int64).astype(dtype)
    magnitudes = rng.standard_normal(shape) * 10.0 ** rng.integers(
        -45, 39, shape)
    specials = np.array(_SPECIALS)[rng.integers(0, len(_SPECIALS), shape)]
    w = np.where(rng.random(shape) < special_share, specials, magnitudes)
    w[rng.random(lanes) < zero_lanes] = -0.0
    with np.errstate(over="ignore"):
        return w.astype(dtype)


def _fold_of(w, stops):
    rows = np.zeros(vectorize._fold_rows(*w.shape, w.dtype), w.dtype)
    with np.errstate(all="ignore"):
        return vectorize._fold(w, rows, stops)


def _accumulated(w, stops):
    with np.errstate(all="ignore"):
        sums = np.add.accumulate(w, axis=1, dtype=w.dtype)
    if stops is None:
        return sums[:, -1]
    return sums[np.arange(len(w)), stops]


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64, np.int32]),
    lanes=st.one_of(st.just(2), st.integers(1, 300)),
    width=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    zero_lanes=st.sampled_from([0.0, 0.5]),
    stopped=st.booleans(),
)
@example(  # one long lane, which takes np.add.accumulate
    dtype=np.float32, lanes=1, width=600, seed=0, special_share=0.0,
    zero_lanes=0.0, stopped=False,
)
def test_fold_equals_accumulate(
    dtype, lanes, width, seed, special_share, zero_lanes, stopped
):
    """``_fold`` against the sequential prefix sums, byte for byte, at
    each lane's stop (``stops`` from 0, the accumulator alone, to
    ``width``)."""
    w = _scan_buffer(dtype, lanes, width, seed, special_share, zero_lanes)
    stops = None
    if stopped:
        stops = np.random.default_rng(seed + 1).integers(0, width + 1, lanes)
    assert _fold_of(w, stops).tobytes() == _accumulated(w, stops).tobytes()


@pytest.mark.parametrize("stops", [None, [3, 0, 5, 3]])
def test_fold_of_negative_zeros_is_negative_zero(stops):
    """Lanes of nothing but -0.0 sum to -0.0 in the left fold; NumPy's
    reduce returns +0.0 unless it starts from -0.0."""
    w = np.full((4, 6), -0.0, np.float32)
    w[1, 1] = 0.0  # one lane with a +0.0 among them folds to +0.0
    stops = None if stops is None else np.array(stops)
    got = _fold_of(w, stops)
    assert got.tobytes() == _accumulated(w, stops).tobytes()
    assert np.signbit(got).tolist() == [True, stops is not None, True, True]
