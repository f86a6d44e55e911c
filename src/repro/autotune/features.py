"""Schedule features for the learned cost model.

Features are static properties of the lowered module plus a one-DPU
instruction sketch — much cheaper than a full-system profile, mirroring
the role of feature extraction in TVM's cost model.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..lowering import LoweredModule
from ..tir import Interval
from ..upmem.analyzer import KernelAnalyzer
from ..upmem.config import DEFAULT_CONFIG, UpmemConfig

__all__ = ["extract_features", "FEATURE_NAMES"]

FEATURE_NAMES = [
    "log_n_dpus",
    "n_tasklets",
    "log_wram_bytes",
    "log_h2d_bytes",
    "log_d2h_bytes",
    "log_h2d_pushes",
    "log_d2h_pushes",
    "log_slots_per_dpu",
    "log_branches_per_dpu",
    "log_dma_calls_per_dpu",
    "log_dma_bytes_per_dpu",
    "barriers",
    "has_host_post",
    "host_parallel",
    "grid_dims",
    "log_tile_bytes",
]


def _log1p(x: float) -> float:
    return math.log1p(max(0.0, x))


def extract_features(
    module: LoweredModule, config: UpmemConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Extract the feature vector for one lowered module."""
    h2d = module.transfer("h2d")
    d2h = module.transfer("d2h")
    n_dpus = module.n_dpus
    h2d_bytes = sum(t.tile_bytes for t in h2d) * n_dpus
    d2h_bytes = sum(t.tile_bytes for t in d2h) * n_dpus
    h2d_pushes = sum(t.tile_elems // t.shape[-1] for t in h2d)
    d2h_pushes = sum(t.tile_elems // t.shape[-1] for t in d2h)
    tile_bytes = sum(t.tile_bytes for t in module.transfers)

    # Grid point 0: every grid variable is a point, so the walk resolves.
    env = {dim.var: Interval.point(0) for dim in module.grid}
    cost = KernelAnalyzer(config).dpu_cost(module.kernel, env).total

    return np.array(
        [
            _log1p(n_dpus),
            float(module.n_tasklets),
            _log1p(module.wram_bytes_per_dpu()),
            _log1p(h2d_bytes),
            _log1p(d2h_bytes),
            _log1p(h2d_pushes),
            _log1p(d2h_pushes),
            _log1p(cost.slots),
            _log1p(cost.branches),
            _log1p(cost.dma_calls),
            _log1p(cost.dma_bytes),
            float(cost.barriers > 0),
            float(bool(module.host_post)),
            float(module.host_parallel_threads),
            float(len(module.grid)),
            _log1p(tile_bytes),
        ],
        dtype=np.float64,
    )
