"""Baselines the paper compares against: PrIM, SimplePIM, CPU, GPU.

The parameter tables, framework-overhead models and rooflines live
here; each baseline compiles and profiles through its target —
``repro.compile(workload, target="prim" | "simplepim" | "cpu")``, except
the GPU roofline, which Fig. 4 reads directly.
"""

from .cpu import CpuModel, GpuModel
from .prim import PRIM_DEFAULT_DPUS, prim_params, prim_search
from .simplepim import SIMPLEPIM_WORKLOADS, simplepim_build

__all__ = [
    "CpuModel",
    "GpuModel",
    "prim_params",
    "prim_search",
    "PRIM_DEFAULT_DPUS",
    "simplepim_build",
    "SIMPLEPIM_WORKLOADS",
]
