"""System-level performance model: transfers, kernel, host post-processing.

Combines the per-DPU timing walk (:mod:`repro.upmem.analyzer`) with the
host-link transfer model and the host CPU model to produce the same
latency breakdown the paper reports (H2D / Kernel / D2H / host reduction,
Figs. 9–10), plus the per-DPU cycle attribution used for Fig. 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..lowering import LoweredModule
from ..tir import (
    For,
    IfThenElse,
    SeqStmt,
    Stmt,
    collect_loads,
)
from .analyzer import DpuCost, KernelAnalyzer, grouped
from .config import DEFAULT_CONFIG, UpmemConfig
from .isa import Counts

__all__ = [
    "Latency",
    "DpuProfile",
    "ProfileResult",
    "FlushLines",
    "PerformanceModel",
]


@dataclass
class Latency:
    """End-to-end latency breakdown in seconds."""

    h2d: float = 0.0
    kernel: float = 0.0
    d2h: float = 0.0
    host: float = 0.0
    launch: float = 0.0

    @property
    def total(self) -> float:
        return self.h2d + self.kernel + self.d2h + self.host + self.launch

    @property
    def d2h_plus_host(self) -> float:
        """The paper's combined "D2H + reduction" bar."""
        return self.d2h + self.host


@dataclass(frozen=True)
class FlushLines:
    """Device seconds of one flush — a batch of runs of one program —
    line by line (:meth:`PerformanceModel.flush_lines`).  ``staging``
    is the constant inputs' placement, owed only after a load."""

    launch: float
    kernel: float
    h2d: float
    d2h: float
    host: float
    staging: float


@dataclass
class DpuProfile:
    """Cycle attribution of the busiest DPU (Fig. 13)."""

    cycles: float = 0.0
    issuable: float = 0.0
    idle_memory: float = 0.0
    idle_core: float = 0.0
    instructions: float = 0.0
    dma_calls: float = 0.0
    dma_bytes: float = 0.0

    def fractions(self) -> Dict[str, float]:
        return {
            "issuable": self.issuable / self.cycles,
            "idle_memory": self.idle_memory / self.cycles,
            "idle_core": self.idle_core / self.cycles,
        }


@dataclass
class ProfileResult:
    """Simulated execution profile of one lowered module."""

    latency: Latency
    dpu: DpuProfile
    kernel_counts: Counts
    n_dpus: int
    n_tasklets: int

    @property
    def total_seconds(self) -> float:
        return self.latency.total

    def gflops(self, flop_count: float) -> float:
        return flop_count / self.total_seconds / 1e9


class PerformanceModel:
    """Evaluates lowered modules on the simulated UPMEM system."""

    def __init__(self, config: Optional[UpmemConfig] = None) -> None:
        self.config = config or DEFAULT_CONFIG

    # -- public -----------------------------------------------------------------
    def profile(self, module: LoweredModule) -> ProfileResult:
        cfg = self.config
        analyzer = KernelAnalyzer(cfg)
        grid_vars = [(dim.var, dim.extent) for dim in module.grid]
        groups = grouped(
            grid_vars, {}, lambda env: analyzer.dpu_cost(module.kernel, env)
        )

        worst_time = 0.0
        worst: Tuple[float, DpuCost] = (0.0, DpuCost())
        total_counts = Counts()
        for count, cost in groups:
            seconds, _parts = self._dpu_time(cost)
            total_counts += cost.total.scaled(count)
            if seconds > worst_time:
                worst_time = seconds
                worst = (seconds, cost)

        profile = self._dpu_profile(*worst)

        latency = Latency(
            h2d=self._transfer_time(module, "h2d"),
            kernel=worst_time,
            d2h=self._transfer_time(module, "d2h"),
            host=self._host_time(module),
            launch=cfg.launch_overhead_s,
        )
        return ProfileResult(
            latency=latency,
            dpu=profile,
            kernel_counts=total_counts,
            n_dpus=module.n_dpus,
            n_tasklets=module.n_tasklets,
        )

    # -- DPU timing ---------------------------------------------------------------
    def _dpu_time(self, cost: DpuCost) -> Tuple[float, Dict[str, float]]:
        cfg = self.config
        total = cost.total
        compute_cycles = total.slots + total.branches * cfg.branch_penalty_cycles
        pipeline_floor = cfg.pipeline_depth * (
            cost.max_tasklet_slots
            + cost.max_tasklet_branches * cfg.branch_penalty_cycles
        )
        compute_time = max(compute_cycles, pipeline_floor)
        dma_time = (
            total.dma_calls * cfg.dma_setup_cycles
            + total.dma_bytes * cfg.dma_cycles_per_byte
        )
        tasklets = max(1, cost.n_tasklets)
        if tasklets >= 2:
            cycles = max(compute_time, dma_time) + min(compute_time, dma_time) / tasklets
        else:
            cycles = compute_time + dma_time
        cycles += total.barriers * cfg.barrier_cycles
        if total.dma_calls > 0:
            avg_burst = (
                cfg.dma_setup_cycles
                + total.dma_bytes / total.dma_calls * cfg.dma_cycles_per_byte
            )
            cycles += 0.5 * min(tasklets, total.dma_calls) * avg_burst
        parts = {
            "compute": compute_time,
            "dma": dma_time,
            "cycles": cycles,
        }
        return cycles * cfg.cycle_time_s, parts

    def _dpu_profile(self, seconds: float, cost: DpuCost) -> DpuProfile:
        cfg = self.config
        cycles = seconds / cfg.cycle_time_s
        total = cost.total
        dma_time = (
            total.dma_calls * cfg.dma_setup_cycles
            + total.dma_bytes * cfg.dma_cycles_per_byte
        )
        issuable = min(total.slots, cycles)
        idle = max(0.0, cycles - issuable)
        idle_memory = min(idle, dma_time)
        idle_core = max(0.0, idle - idle_memory)
        return DpuProfile(
            cycles=cycles,
            issuable=issuable,
            idle_memory=idle_memory,
            idle_core=idle_core,
            instructions=total.slots + total.branches,
            dma_calls=total.dma_calls,
            dma_bytes=total.dma_bytes,
        )

    # -- transfers -------------------------------------------------------------------
    def _transfer_time(
        self,
        module: LoweredModule,
        direction: str,
        replicas: int = 1,
        staging: bool = False,
    ) -> float:
        """Seconds one run of ``replicas`` stacked copies of ``module``
        spends moving its tensors in ``direction``.

        The copies sit side by side on ``replicas x n_dpus`` DPUs, so a
        rank-parallel push carries every copy's bytes at the bandwidth
        of the ranks they span (PrIM §3.3), for one ``rows`` calls'
        worth of setup.  ``staging`` prices the constant inputs' one-time
        placement, which a run's H2D leaves out (§5.4).
        """
        cfg = self.config
        specs = module.transfer(direction)
        n_dpus = module.n_dpus * replicas
        ranks_used = max(1, math.ceil(n_dpus / cfg.dpus_per_rank))
        aggregate = (
            cfg.h2d_bandwidth_gbps if direction == "h2d" else cfg.d2h_bandwidth_gbps
        ) * 1e9
        bandwidth = aggregate * min(1.0, ranks_used / cfg.n_ranks)
        serial_bandwidth = cfg.serial_copy_bandwidth_gbps * 1e9

        mode = module.options.transfer_mode
        time = 0.0
        for spec in specs:
            rows = spec.tile_elems // spec.shape[-1]
            total_bytes = spec.tile_bytes * n_dpus
            if direction == "h2d" and staging != (
                spec.global_buffer.name in module.const_inputs
            ):
                # Constant tensor (weight / KV cache): placed once before
                # kernel launches, outside steady-state latency (§5.4) —
                # and the only thing a staging push moves.
                continue
            if (
                direction == "h2d"
                and cfg.resident_partitioned_inputs
                and not staging
            ):
                # One partitioned copy of each input is resident in PIM
                # memory (weights / KV cache placed once); only duplicated
                # bytes — broadcast tiles or padded rows overlapping other
                # DPUs' data — move per run.
                total_bytes = max(
                    0.0, total_bytes - spec.global_buffer.nbytes * replicas
                )
                if total_bytes == 0.0:
                    continue
            if mode == "element":
                calls = spec.tile_elems * n_dpus
                time += calls * cfg.copy_call_overhead_s
                time += total_bytes / serial_bandwidth
            elif mode == "bulk":
                calls = rows * n_dpus
                time += calls * cfg.copy_call_overhead_s
                time += total_bytes / serial_bandwidth
            else:  # parallel (rank-level push_xfer)
                time += rows * cfg.xfer_call_overhead_s
                time += total_bytes / bandwidth
        return time

    def flush_lines(
        self, module: LoweredModule, batch: int, latency: Latency
    ) -> FlushLines:
        """Device lines of ``batch`` runs of ``module`` stacked into one
        grid, the way ``Executable.run_batch`` runs them.

        ``latency`` is one run's profile: ``launch``, ``kernel`` and
        ``host`` come from it, as does any transfer it adds to the
        module's own, so a baseline's adjusted profile keeps its
        adjustments and a flush of one is one run.  The machine holds
        ``n_dpus // module.n_dpus`` replica groups, so the batch takes
        ``ceil(batch / groups)`` rounds: the launch is paid once, the
        kernel once a round, and each round pushes its replicas' inputs
        and outputs in one transfer per direction.  Host statements run
        per item.  ``staging`` is the constant inputs' placement on
        every group, which a caller charges once per program load.
        """
        groups = max(1, self.config.n_dpus // module.n_dpus)
        full, rest = divmod(batch, groups)

        def pushed(direction: str) -> float:
            # What one run's profile moves beyond the module's transfers
            # (SimplePIM's output gather) is paid per item.
            time = batch * (
                getattr(latency, direction)
                - self._transfer_time(module, direction)
            )
            if full:
                time += full * self._transfer_time(module, direction, groups)
            if rest:
                time += self._transfer_time(module, direction, rest)
            return time

        return FlushLines(
            launch=latency.launch,
            kernel=(full + (rest > 0)) * latency.kernel,
            h2d=pushed("h2d"),
            d2h=pushed("d2h"),
            host=batch * latency.host,
            staging=self._transfer_time(module, "h2d", groups, staging=True),
        )

    # -- host post-processing ------------------------------------------------------------
    def _host_time(self, module: LoweredModule) -> float:
        cfg = self.config
        stmts = list(module.host_pre) + list(module.host_post)
        if not stmts:
            return 0.0
        elems = 0.0
        reads = 0.0
        for stmt in stmts:
            e, r = _host_work(stmt)
            elems += e
            reads += r
        threads = max(1, min(module.host_parallel_threads, cfg.host_threads))
        bytes_touched = (elems + reads) * 4.0
        bw = min(threads * cfg.host_thread_bandwidth, cfg.host_mem_bandwidth)
        time = max(bytes_touched / bw, (elems + reads) * cfg.host_op_overhead_s / threads)
        if threads > 1:
            time += cfg.host_parallel_overhead_s
        return time


def _host_work(stmt: Stmt) -> Tuple[float, float]:
    """(stores, loads) executed by a host statement tree."""
    if isinstance(stmt, For):
        e, r = _host_work(stmt.body)
        try:
            extent = stmt.extent.value  # type: ignore[attr-defined]
        except AttributeError:
            extent = 1
        return e * extent, r * extent
    if isinstance(stmt, SeqStmt):
        e = r = 0.0
        for s in stmt.stmts:
            ei, ri = _host_work(s)
            e += ei
            r += ri
        return e, r
    if isinstance(stmt, IfThenElse):
        return _host_work(stmt.then_case)
    # A BufferStore: host programs hold no other statement kind.
    return 1.0, float(len(collect_loads(stmt.value)))
