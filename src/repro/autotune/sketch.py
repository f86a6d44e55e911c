"""ATiM-extended sketch generation rules (paper §5.2.1, Fig. 6, Table 2).

A *sketch* is a parameterized schedule template implementing the tunable
host and kernel operations: host-to-DPU data distribution (split/reorder/
bind), reduction strategy (rfactor), multi-level tiling, intra-DPU caching
(cache_read/cache_write + compute_at) and host post-processing
(split + parallel).  A *candidate* is a sketch plus concrete parameter
values; the evolutionary search explores the joint space.

This module is the one description of that space.  A workload belongs to
a *family* (:data:`FAMILIES`, one :class:`Family` row per line below);
everything else — the tuner, the targets' defaults, the graph builder's
pinned grids, the PrIM/SimplePIM baselines — asks this table which
parameters a family has and supplies only its own policy.

=========== =============== ==================== ============ ======================
workloads   rule            DPU split per axis   reduction    optional
                                                 across DPUs
=========== =============== ==================== ============ ======================
va, geva    elementwise     n_dpus               —            unroll
red         red             —                    n_dpus       dpu_combine,
                                                              host_threads, unroll
mtv, gemv   spatial-reduce  m_dpus               k_dpus ≤ 64  host_threads, unroll
ttv, mmtv   spatial-reduce  i_dpus, j_dpus       k_dpus ≤ 8   host_threads, unroll
=========== =============== ==================== ============ ======================

Every family also has ``n_tasklets`` and ``cache``.  Domains (Table 2):

* a DPU split of a spatial axis — powers of two up to
  ``min(max_dpus, 2048, extent)``; the spatial-reduce families add the
  exact divisors of the extent (perfect tiles of e.g. 448 rows);
* a reduction split across DPUs — powers of two leaving every DPU at
  least 64 elements, up to the cap above (``red``: the machine);
* ``n_tasklets`` 1..24, ``cache`` 8..512 elements, ``host_threads``
  1..32, ``unroll`` and ``dpu_combine`` 0/1 — :data:`_SHARED`.

``param_space`` lists a family's parameters in the order *DPU splits,
reduction split, n_tasklets, cache, optional*; that order is the order
the tuner's random draws walk, so it is part of the search's identity.

A rule schedules :attr:`Workload.kernel_output` and caches the tensors
it reads (:attr:`Workload.kernel_inputs`: an input, or the product of a
host prologue over one); a workload with host epilogue or prologue
stages (:func:`repro.workloads.with_epilogue`,
:func:`~repro.workloads.with_prologue`) keeps its base's row, and the
rule leaves those stages unbound, so they lower to ``host_post`` and
``host_pre``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from ..schedule import Schedule, ScheduleError
from ..workloads import Workload

__all__ = [
    "SketchError",
    "Family",
    "FAMILIES",
    "family_of",
    "distributed_extents",
    "generate_schedule",
    "param_space",
    "seed_params",
    "fixed_params",
    "subspace_of",
    "pow2_upto",
    "DPU_CHOICES",
    "TASKLET_CHOICES",
    "SEED_TASKLETS",
    "CACHE_CHOICES",
]


class SketchError(ScheduleError):
    """The parameter combination cannot form a valid schedule."""


DPU_CHOICES = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
TASKLET_CHOICES = [1, 2, 4, 8, 16, 24]
#: ``seed_params``' tasklet count, where every search starts; the graph
#: builder's pinned grids run at it too.
SEED_TASKLETS = 16
CACHE_CHOICES = [8, 16, 32, 64, 128, 256, 512]
HOST_THREAD_CHOICES = [1, 4, 16, 32]
#: A reduction split across DPUs leaves each DPU at least this many elements.
_REDUCE_GRAIN = 64
#: The per-DPU kernel parameters every family has, after its DPU splits.
_KERNEL = ("n_tasklets", "cache")


class _Shared(NamedTuple):
    """A parameter whose domain does not depend on the workload."""

    domain: List[int]
    #: ``seed_params``' pick (the domain's last value where it lacks this one).
    seed: int
    #: ``fixed_params``' value unless overridden; ``None`` leaves the key out.
    fixed: Optional[int]


_SHARED: Dict[str, _Shared] = {
    "n_tasklets": _Shared(TASKLET_CHOICES, SEED_TASKLETS, None),
    "cache": _Shared(CACHE_CHOICES, 64, None),
    "dpu_combine": _Shared([0, 1], 0, 0),
    "host_threads": _Shared(HOST_THREAD_CHOICES, 32, 1),
    "unroll": _Shared([0, 1], 0, None),
}
#: Seeds after the first: the base with one parameter moved (in this order).
_SEED_VARIANTS = (("dpu_combine", 1), ("cache", 256))


def pow2_upto(limit: int) -> List[int]:
    """Powers of two no larger than ``limit`` (at least ``[1]``)."""
    return [1 << e for e in range(max(1, limit).bit_length())]


def _clamp_parts(nparts: int, extent: int) -> int:
    """Never split into more parts than iterations (oversubscription would
    inflate per-DPU regions with padded rows)."""
    return max(1, min(nparts, extent))


def _spatial_domain(extent: int, limit: int, exact_tiles: bool) -> List[int]:
    """DPU splits of a spatial axis: powers of two, plus — for
    ``exact_tiles`` — the exact divisors of ``extent`` (perfect tiles).

    ATiM samples tile factors within loop bounds, so non-power-of-two
    extents (e.g. 448 = 28 heads x 16 batch) can still tile exactly.
    """
    limit = min(limit, extent)
    domain = set(pow2_upto(min(limit, DPU_CHOICES[-1])))
    d = 1
    while exact_tiles and d * d <= extent:
        if extent % d == 0:
            domain.update(f for f in (d, extent // d) if f <= limit)
        d += 1
    return sorted(domain)


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One sketch rule's parameters: a row of the module docstring's table."""

    rule: Callable[[Workload, Dict[str, int], "Family"], Schedule]
    #: DPU-split parameter of each distributed spatial axis, outermost first.
    dpu_axes: Tuple[str, ...] = ()
    #: Whether those splits may also be exact divisors of the extent.
    exact_tiles: bool = False
    #: Parameter splitting the reduction across DPUs, and its cap (``None``:
    #: the machine).  With no spatial axis it *is* the distribution.
    reduce: Optional[str] = None
    reduce_cap: Optional[int] = None
    #: Parameters the rule reads with a default, in ``param_space`` order.
    optional: Tuple[str, ...] = ("unroll",)

    @property
    def budget(self) -> Tuple[str, ...]:
        """The parameters that spend the machine's DPUs, outermost first:
        the spatial splits, or the reduction split where there is none."""
        return self.dpu_axes or (self.reduce,)

    @property
    def rfactor(self) -> Optional[str]:
        """The *optional* reduction split (the ``rfactor`` design subspace):
        the reduction parameter of a family that also splits spatially."""
        return self.reduce if self.dpu_axes else None

    @cached_property
    def params(self) -> Tuple[str, ...]:
        """Every parameter, in ``param_space`` order."""
        reduce = (self.reduce,) if self.reduce else ()
        return self.dpu_axes + reduce + _KERNEL + self.optional

    @cached_property
    def names(self) -> FrozenSet[str]:
        return frozenset(self.params)

    @cached_property
    def required(self) -> FrozenSet[str]:
        return frozenset(self.budget + _KERNEL)


def _sketch_elementwise(workload: Workload, p: Dict[str, int], row: Family) -> Schedule:
    out = workload.kernel_output
    sch = Schedule(workload.output)
    s = sch[out]
    (i,) = s.op.axis
    i_dpu, rest = s.split(i, nparts=_clamp_parts(p[row.dpu_axes[0]], i.extent))
    i_thr, r2 = s.split(rest, nparts=_clamp_parts(p["n_tasklets"], rest.extent))
    i_blk, i_in = s.split(r2, factor=p["cache"])
    s.reorder(i_dpu, i_thr, i_blk, i_in)
    if p.get("unroll"):
        s.unroll(i_in)
    s.bind(i_dpu, "blockIdx.x")
    s.bind(i_thr, "threadIdx.x")
    for inp in workload.kernel_inputs:
        sch.cache_read(out, inp, "wram").compute_at(s, i_blk)
    sch.cache_write(out, "wram").reverse_compute_at(s, i_blk)
    return sch


def _sketch_red(workload: Workload, p: Dict[str, int], row: Family) -> Schedule:
    out = workload.kernel_output
    sch = Schedule(workload.output)
    s = sch[out]
    (k,) = s.op.reduce_axis
    k_dpu, k_rest = s.split(k, nparts=_clamp_parts(p[row.reduce], k.extent))
    cf = sch.rfactor(out, k_dpu)  # per-DPU partials
    scf = sch[cf]
    (kr,) = scf.op.reduce_axis
    k_thr, k_rest2 = scf.split(kr, nparts=_clamp_parts(p["n_tasklets"], kr.extent))
    cf2 = sch.rfactor(cf, k_thr)  # per-tasklet partials
    s2 = sch[cf2]
    thr_ax, dpu_ax, i_ax = s2.op.axis
    (k_in,) = s2.op.reduce_axis
    k_blk, k_elem = s2.split(k_in, factor=p["cache"])
    s2.reorder(dpu_ax, thr_ax, i_ax, k_blk, k_elem)
    if p.get("unroll"):
        s2.unroll(k_elem)
    s2.bind(dpu_ax, "blockIdx.x")
    s2.bind(thr_ax, "threadIdx.x")
    sch.cache_read(cf2, workload.kernel_inputs[0], "wram").compute_at(s2, k_blk)
    sch.cache_write(cf2, "wram").reverse_compute_at(s2, thr_ax)
    # Tasklet partials are combined on the DPU (ATiM/SimplePIM style) or
    # shipped to the host (PrIM sends every tasklet's result).
    if p.get("dpu_combine", 1):
        s_cf = sch[cf]
        rf_dpu_ax = s_cf.op.axis[0]
        s_cf.bind(rf_dpu_ax, "blockIdx.x")
    # Host final reduction over per-DPU (or per-tasklet) partials.
    s_final = sch[out]
    (krf,) = s_final.op.reduce_axis
    ko, _ki = s_final.split(krf, nparts=p.get("host_threads", 1))
    s_final.parallel(ko)
    return sch


def _sketch_spatial_reduce(
    workload: Workload, p: Dict[str, int], row: Family
) -> Schedule:
    """One reduction under ``len(row.dpu_axes)`` distributed spatial axes
    (MTV/GEMV: one, TTV/MMTV: two); the last one also carries the tasklets."""
    out = workload.kernel_output
    sch = Schedule(workload.output)
    s = sch[out]
    (k,) = s.op.reduce_axis
    k_dpus = p.get(row.reduce, 1)

    if k_dpus > 1:
        k_dpu, _k_rest = s.split(k, nparts=k_dpus)
        target = sch.rfactor(out, k_dpu)
        stage = sch[target]
        kd_ax, *spatial = stage.op.axis
        (k,) = stage.op.reduce_axis
    else:
        target, stage, kd_ax, spatial = out, s, None, list(s.op.axis)

    grid, inner = [], []
    for name, ax in zip(row.dpu_axes, spatial):
        dpu, rest = stage.split(ax, nparts=_clamp_parts(p[name], ax.extent))
        grid.append(dpu)
        inner.append(rest)
    thr, inner[-1] = stage.split(
        inner[-1], nparts=_clamp_parts(p["n_tasklets"], inner[-1].extent)
    )
    k_blk, k_elem = stage.split(k, factor=p["cache"])
    if kd_ax is not None:
        grid.append(kd_ax)
    stage.reorder(*grid, *inner[:-1], thr, inner[-1], k_blk, k_elem)
    if p.get("unroll"):
        stage.unroll(k_elem)
    for ax, tag in zip(grid, ("blockIdx.x", "blockIdx.y", "blockIdx.z")):
        stage.bind(ax, tag)
    stage.bind(thr, "threadIdx.x")
    for inp in workload.kernel_inputs:
        sch.cache_read(target, inp, "wram").compute_at(stage, k_blk)
    sch.cache_write(target, "wram").reverse_compute_at(stage, thr)

    if k_dpus > 1:
        s_final = sch[out]
        fo, _fi = s_final.split(s_final.op.axis[0], nparts=p.get("host_threads", 1))
        s_final.parallel(fo)
    return sch


_ELEMENTWISE = Family(_sketch_elementwise, dpu_axes=("n_dpus",))
_RED = Family(
    _sketch_red, reduce="n_dpus", optional=("dpu_combine", "host_threads", "unroll")
)
_MATVEC = Family(
    _sketch_spatial_reduce, dpu_axes=("m_dpus",), exact_tiles=True,
    reduce="k_dpus", reduce_cap=64, optional=("host_threads", "unroll"),
)
_BATCHED = Family(
    _sketch_spatial_reduce, dpu_axes=("i_dpus", "j_dpus"), exact_tiles=True,
    reduce="k_dpus", reduce_cap=8, optional=("host_threads", "unroll"),
)

#: Workload name -> its family: the whole search space.
FAMILIES: Dict[str, Family] = {
    "va": _ELEMENTWISE,
    "geva": _ELEMENTWISE,
    "red": _RED,
    "mtv": _MATVEC,
    "gemv": _MATVEC,
    "ttv": _BATCHED,
    "mmtv": _BATCHED,
}


def family_of(workload: Workload) -> Family:
    """The workload's row; ``KeyError`` for a workload no rule sketches,
    ``ValueError`` for a shape the rule's axes do not fit."""
    row = FAMILIES.get(workload.name)
    if row is None:
        raise KeyError(f"no sketch for workload {workload.name!r}")
    if len(workload.shape) != len(row.dpu_axes) + bool(row.reduce):
        raise ValueError(f"{workload.name}: no rule fits shape {tuple(workload.shape)}")
    return row


def distributed_extents(workload: Workload) -> Tuple[int, ...]:
    """Extent of each axis ``family_of(workload).budget`` splits across
    DPUs, outermost first."""
    row = family_of(workload)
    return tuple(workload.shape[: len(row.dpu_axes)] or workload.shape[-1:])


# ---------------------------------------------------------------------------
# the functions of a row
# ---------------------------------------------------------------------------


def param_space(workload: Workload, max_dpus: int = 2048) -> Dict[str, List[int]]:
    """Tunable-parameter domains for a workload (paper Table 2)."""
    row = family_of(workload)
    space: Dict[str, List[int]] = {}
    for name, extent in zip(row.dpu_axes, workload.shape):
        space[name] = _spatial_domain(extent, max_dpus, row.exact_tiles)
    if row.reduce:
        cap = min(row.reduce_cap or max_dpus, DPU_CHOICES[-1])
        space[row.reduce] = pow2_upto(min(cap, workload.shape[-1] // _REDUCE_GRAIN))
    for name in row.params[len(space):]:  # the rest are shape-independent
        space[name] = _SHARED[name].domain
    return space


def seed_params(
    space: Dict[str, List[int]], n_dpus: int
) -> List[Dict[str, int]]:
    """Canonical sketch defaults for a parameter space (one per design
    subspace), ordered best-guess first.

    Mirrors Ansor/MetaSchedule seeding the population with each sketch's
    default before evolution starts: a max-parallelism plain candidate
    and, where the space has a reduction dimension, an rfactor variant.
    Shared by the tuner's warm start and by targets that need a sensible
    un-tuned schedule (``repro.compile(workload, target=...)`` without
    explicit params).
    """
    row = _row_of_space(space)
    base: Dict[str, int] = {}
    budget = n_dpus
    for key in row.budget:
        base[key] = max(d for d in space[key] if d <= max(1, budget))
        budget //= base[key]
    if row.rfactor:
        base[row.rfactor] = 1
    for key in row.params[len(base):]:  # the shape-independent rest
        domain = space[key]
        base[key] = _SHARED[key].seed if _SHARED[key].seed in domain else domain[-1]
    seeds = [base]
    if row.rfactor and len(space[row.rfactor]) > 1:
        rf = dict(base)
        k_domain = space[row.rfactor]
        rf[row.rfactor] = max(d for d in k_domain if d <= max(1, budget))
        if rf[row.rfactor] == 1:
            # Trade spatial DPUs for reduction DPUs.
            shrink = row.dpu_axes[0]
            domain = space[shrink]
            rf[shrink] = domain[max(0, domain.index(rf[shrink]) - 2)]
            rf[row.rfactor] = k_domain[min(2, len(k_domain) - 1)]
        seeds.append(rf)
    for key, value in _SEED_VARIANTS:
        if value in space.get(key, ()) and value != base[key]:
            seeds.append({**base, key: value})
    return seeds


def _row_of_space(space: Dict[str, List[int]]) -> Family:
    """The family a ``param_space`` result belongs to (by its key set)."""
    for row in FAMILIES.values():
        if row.names == space.keys():
            return row
    raise KeyError(f"no family has exactly the parameters {sorted(space)}")


def fixed_params(
    workload: Workload,
    dpus_per_axis: Sequence[int],
    n_tasklets: int,
    cache: int,
    **fixed: int,
) -> Dict[str, int]:
    """One point of the family's space from a caller's *policy*: DPUs for
    each of :func:`distributed_extents`, tasklets and cache tile.

    A caller may name the reduction split in ``fixed`` (the family's
    ``rfactor`` parameter, ``k_dpus=8``: the graph builder's pinned
    grids do); otherwise the reduction is not split across DPUs beyond
    the distribution.  The optional parameters take their
    :data:`_SHARED` ``fixed`` value (or are left out) unless ``fixed``
    names them.
    """
    row = family_of(workload)
    if len(dpus_per_axis) != len(row.budget):
        raise ValueError(
            f"{workload.name} distributes {len(row.budget)} axes,"
            f" got DPU counts {list(dpus_per_axis)}"
        )
    chosen = dict(
        zip(row.budget, dpus_per_axis), n_tasklets=n_tasklets, cache=cache, **fixed
    )
    _check_names(workload, row, chosen)
    off = {row.rfactor: 1, **{key: _SHARED[key].fixed for key in row.optional}}
    params = {key: chosen.get(key, off.get(key)) for key in row.params}
    return {key: value for key, value in params.items() if value is not None}


def subspace_of(workload_name: str, params: Dict[str, int]) -> str:
    """Design-space tag used by balanced sampling (§5.2.3).

    Candidates factoring the reduction across DPUs (``rfactor``) form one
    subspace; plain spatial-only distribution forms the other.
    """
    return "rfactor" if params.get("k_dpus", 1) > 1 else "plain"


def _check_names(workload: Workload, row: Family, params: Dict[str, int]) -> None:
    """Parameters are checked where they enter: a misspelt or missing key
    is a :class:`SketchError`, not a ``KeyError`` from inside a rule — and
    not a second cache entry for the same module."""
    problems = [f"missing {k!r}" for k in sorted(row.required - params.keys())]
    problems += [f"unknown {k!r}" for k in sorted(params.keys() - row.names)]
    if problems:
        raise SketchError(
            f"{workload.name}: {', '.join(problems)};"
            f" the family's parameters are {list(row.params)}"
        )


def generate_schedule(workload: Workload, params: Dict[str, int]) -> Schedule:
    """Instantiate the sketch for ``workload`` with concrete parameters."""
    row = family_of(workload)
    _check_names(workload, row, params)
    try:
        return row.rule(workload, params, row)
    except ScheduleError as exc:
        raise SketchError(str(exc)) from exc
