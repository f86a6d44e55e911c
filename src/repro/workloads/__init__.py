"""Benchmark workloads from the paper's evaluation (§6)."""

from .gptj import GPTJ_30B, GPTJ_6B, GPTJConfig, fc_mtv, fc_shapes, mha_mmtv
from .registry import SIZED_WORKLOADS, make_workload, size_labels, workload_names
from .tensor_ops import (
    Workload, geva, gemv, mmtv, mtv, red, ttv, va, with_epilogue,
    with_prologue,
)

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
    "make_workload",
    "workload_names",
    "size_labels",
    "SIZED_WORKLOADS",
    "GPTJConfig",
    "GPTJ_6B",
    "GPTJ_30B",
    "mha_mmtv",
    "fc_mtv",
    "fc_shapes",
]
