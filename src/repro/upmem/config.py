"""UPMEM hardware configuration and calibrated model constants.

Every constant cites its provenance.  Defaults model the paper's testbed: a
dual-socket Xeon Gold 5220R host with 32 ranks of DDR4-2400 PIM DIMMs
(2048 DPUs).  Sources:

* Devaux, "The true Processing-In-Memory accelerator", Hot Chips 2019.
* Gómez-Luna et al., "Benchmarking a New Paradigm ... (PrIM)", IEEE
  Access 2022 — DPU pipeline behaviour, MRAM/WRAM bandwidths, host link
  bandwidth scaling.
* Hyun et al., "Pathfinding Future PIM Architectures ... (uPIMulator)",
  HPCA 2024 — branch/issue behaviour of the in-order DPU core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["UpmemConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class UpmemConfig:
    """Hardware parameters of the simulated UPMEM system."""

    # ---- system topology --------------------------------------------------
    n_ranks: int = 32
    dpus_per_rank: int = 64

    # ---- DPU core (Devaux 2019; PrIM §2) -----------------------------------
    dpu_frequency_hz: float = 350e6
    max_tasklets: int = 24
    #: Pipeline depth: one tasklet can issue an instruction every
    #: ``pipeline_depth`` cycles, so >=11 resident tasklets sustain 1 IPC.
    pipeline_depth: int = 11
    #: Extra cycles lost when a conditional branch is evaluated; the DPU
    #: has no branch predictor, so every taken/not-taken decision disturbs
    #: the revolver pipeline (uPIMulator).
    branch_penalty_cycles: float = 1.0

    # ---- memories ----------------------------------------------------------
    wram_bytes: int = 64 * 1024
    #: IRAM holds 48-bit instructions: 24 KB == 4096 instructions.
    iram_instructions: int = 4096
    mram_bytes: int = 64 * 1024 * 1024

    # ---- MRAM<->WRAM DMA engine (PrIM fig. 5) --------------------------------
    #: Fixed cycles to program one DMA transfer.
    dma_setup_cycles: float = 77.0
    #: Streaming cost per byte once a burst is running (~0.7 GB/s/DPU at
    #: 350 MHz -> ~0.5 cycles/byte for reads).
    dma_cycles_per_byte: float = 0.5
    #: Minimum transfer granularity/alignment in bytes.
    dma_align_bytes: int = 8

    # ---- host <-> DPU link (PrIM §3.3) ---------------------------------------
    #: Aggregate H2D bandwidth with rank-parallel pushes, full system.
    h2d_bandwidth_gbps: float = 6.7
    #: Aggregate D2H bandwidth (reads are slower on UPMEM).
    d2h_bandwidth_gbps: float = 4.7
    #: Software overhead per ``dpu_push_xfer`` call (seconds).
    xfer_call_overhead_s: float = 4.0e-6
    #: Software overhead per per-DPU ``dpu_copy_to/from`` call (seconds).
    copy_call_overhead_s: float = 2.0e-6
    #: Fixed kernel-launch cost (``dpu_launch``), seconds.
    launch_overhead_s: float = 35.0e-6
    #: Effective bandwidth of serial per-DPU copies (``dpu_copy_to``),
    #: which cannot exploit rank-level parallelism (PrIM §3.3 measures
    #: serial transfers an order of magnitude below parallel pushes).
    serial_copy_bandwidth_gbps: float = 0.12

    # ---- host CPU (Xeon Gold 5220R, dual socket) ------------------------------
    host_threads: int = 48
    #: Sustained single-thread reduction throughput (bytes/s).
    host_thread_bandwidth: float = 6.0e9
    #: Socket memory bandwidth cap (bytes/s) for host post-processing.
    host_mem_bandwidth: float = 85.0e9
    #: Per-element cost of host reduction arithmetic (seconds); dominated
    #: by memory traffic, kept for small-tensor fidelity.
    host_op_overhead_s: float = 2.0e-10
    #: Fixed cost of entering/leaving a parallel host region.
    host_parallel_overhead_s: float = 8.0e-6

    # ---- deployment model -------------------------------------------------------
    #: Inputs whose DPU tiles exactly partition the tensor are resident in
    #: PIM memory (placed once, e.g. weight matrices / KV cache); only
    #: duplicated data (broadcast vectors) and outputs move per run.  This
    #: matches the paper's steady-state measurement where e.g. 2-D tiling
    #: shrinks H2D by cutting the broadcast footprint of the input vector.
    resident_partitioned_inputs: bool = True

    # ---- intra-DPU synchronization -------------------------------------------
    barrier_cycles: float = 200.0

    # ---- instruction cost table (cycles per issued instruction) ---------------
    #: Integer multiply is multi-cycle on the DPU (no 32x32 multiplier).
    int_mul_cycles: float = 5.0
    float_mul_cycles: float = 8.0
    float_add_cycles: float = 5.0

    @property
    def n_dpus(self) -> int:
        return self.n_ranks * self.dpus_per_rank

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.dpu_frequency_hz

    def with_(self, **kwargs) -> "UpmemConfig":
        """Functional update (e.g. smaller systems for tests)."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = UpmemConfig()
