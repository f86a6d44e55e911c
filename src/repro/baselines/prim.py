"""PrIM-style baselines (paper §6, "Experimental setup").

Three configurations are reproduced as schedules with PrIM's documented
parameters — the point being that their *structure* matches PrIM's
hand-written kernels:

* **PrIM** — default parameters from the PrIM repository: 1-D tiling over
  the outermost spatial dimension only, 16 tasklets, 1024-byte WRAM
  caching tiles (the programming guide's recommendation), per-tasklet
  partials shipped to the host for RED, DPU counts from paper Table 3.
* **PrIM(E)** — PrIM with the DPU count grid-searched (2^n, 5 ≤ n ≤ 11
  for MMTV, 8 ≤ n ≤ 11 otherwise).
* **PrIM+search** — DPU count, tasklet count and caching tile size all
  grid-searched, but still 1-D tiling (no reduction-dimension tiling) —
  the contrast with ATiM's joint search space.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..autotune.compile import default_engine
from ..autotune.sketch import fixed_params, pow2_upto
from ..upmem.config import DEFAULT_CONFIG, UpmemConfig
from ..upmem.system import PerformanceModel, ProfileResult
from ..workloads import Workload

__all__ = ["prim_params", "prim_search", "PRIM_DEFAULT_DPUS"]

#: Paper Table 3, "PrIM DPUs" column, keyed by (workload, size label).
PRIM_DEFAULT_DPUS: Dict[Tuple[str, str], int] = {
    ("red", "4MB"): 256,
    ("red", "64MB"): 1024,
    ("red", "256MB"): 1024,
    ("red", "512MB"): 1024,
    ("mtv", "4MB"): 256,
    ("mtv", "64MB"): 256,
    ("mtv", "256MB"): 512,
    ("mtv", "512MB"): 512,
    ("gemv", "4MB"): 256,
    ("gemv", "64MB"): 256,
    ("gemv", "256MB"): 512,
    ("gemv", "512MB"): 512,
    ("ttv", "4MB"): 256,
    ("ttv", "64MB"): 1024,
    ("ttv", "256MB"): 2048,
    ("ttv", "512MB"): 2048,
    ("mmtv", "4MB"): 64,
    ("mmtv", "64MB"): 512,
    ("mmtv", "256MB"): 2048,
    ("mmtv", "512MB"): 2048,
    ("va", "4MB"): 2048,
    ("va", "64MB"): 2048,
    ("va", "256MB"): 2048,
    ("geva", "4MB"): 1024,
    ("geva", "64MB"): 1024,
    ("geva", "256MB"): 2048,
}

_PRIM_TASKLETS = 16
_PRIM_CACHE_ELEMS = 256  # 1024 bytes of float32, the PrIM guide default

#: (tasklet counts, caching tile sizes) grid-searched by the PrIM(E) /
#: PrIM+search variants (§6).
_SEARCH_RANGES = {
    "e": ((_PRIM_TASKLETS,), (_PRIM_CACHE_ELEMS,)),
    "search": ((1, 2, 4, 8, 16, 24), (8, 16, 32, 64, 128, 256)),
}


def _default_dpus(workload: Workload, size: Optional[str]) -> int:
    if size is not None:
        key = (workload.name, size)
        if key in PRIM_DEFAULT_DPUS:
            return PRIM_DEFAULT_DPUS[key]
    # Fallback heuristic matching PrIM's choices: elementwise kernels use
    # the full system; everything else distributes the outer spatial dim.
    if workload.name in ("va", "geva"):
        return 2048
    if workload.name == "red":
        return 1024
    outer = workload.shape[0]
    if workload.name in ("ttv", "mmtv"):
        outer = workload.shape[0] * workload.shape[1]
    dpus = pow2_upto(min(2048, outer))[-1]
    return max(64, min(512, dpus)) if workload.name in ("mtv", "gemv") else dpus


def prim_params(
    workload: Workload,
    n_dpus: Optional[int] = None,
    n_tasklets: int = _PRIM_TASKLETS,
    cache: int = _PRIM_CACHE_ELEMS,
    size: Optional[str] = None,
) -> Dict[str, int]:
    """Sketch parameters reproducing a PrIM kernel's structure: the DPU
    count tiles the outer spatial dims of a reduction outermost-first
    (1-D workloads spend it whole), the reduction itself is never split,
    and every tasklet's partial goes to the host."""
    budget = n_dpus or _default_dpus(workload, size)
    per_axis = []
    for extent in workload.shape[:-1]:
        per_axis.append(max(1, min(budget, extent)))
        budget //= per_axis[-1]
    return fixed_params(workload, per_axis or [budget], n_tasklets, cache)


def prim_search(
    workload: Workload, variant: str, config: Optional[UpmemConfig] = None
) -> Tuple[ProfileResult, Dict[str, int]]:
    """Best (profile, params) of the ``"e"`` or ``"search"`` variant's
    grid; DPU counts are 2^n, 5 ≤ n ≤ 11 for MMTV and 8 ≤ n ≤ 11
    otherwise."""
    cfg = config or DEFAULT_CONFIG
    engine = default_engine()
    model = PerformanceModel(cfg)
    tasklet_range, cache_range = _SEARCH_RANGES[variant]
    best: Optional[Tuple[float, ProfileResult, Dict[str, int]]] = None
    for n in range(5 if workload.name == "mmtv" else 8, 12):
        for tasklets in tasklet_range:
            for cache in cache_range:
                params = prim_params(
                    workload, n_dpus=2**n, n_tasklets=tasklets, cache=cache
                )
                artifact = engine.compile(workload, params, config=cfg)
                if not artifact.verified:
                    continue
                prof = model.profile(artifact.module)
                key = prof.latency.total
                if best is None or key < best[0]:
                    best = (key, prof, params)
    if best is None:
        raise RuntimeError(f"no valid PrIM configuration for {workload.name}")
    return best[1], best[2]
