"""HBM-PIM (Aquabolt-XL) backend sketch — paper §8, "Extension to other
DRAM-PIM architectures".

The paper reports preliminary results suggesting ATiM extends to
MAC-accelerator DRAM-PIM like Samsung's HBM-PIM, where a processing unit
(PU) is shared by every two banks and executes 16-wide fp16 multiply-
accumulate commands issued in a special memory mode, instead of a
general-purpose core running compiled kernels.

This module reproduces that extension at the same fidelity the paper
reports (a feasibility estimate, not a full backend): it maps a lowered
module's per-DPU tiles onto PU command streams and estimates latency from
command counts, showing that the two-level binding the paper describes
(bank level + PU level) drops out of the existing grid/tile structure.

The user-facing surface is the ``hbm-pim`` target
(``repro.compile(workload, target="hbm-pim")``; ``autotune(wl,
target="hbm-pim")`` scores a search with this estimator); this module
provides the estimator it applies to the module the shared ``build``
pipeline lowers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..lowering import LoweredModule
from ..upmem.system import Latency

__all__ = ["HbmPimConfig", "HbmPimEstimator", "HbmPimEstimate"]


@dataclass(frozen=True)
class HbmPimConfig:
    """Aquabolt-XL-style configuration (Lee et al., ISCA 2021)."""

    n_pseudo_channels: int = 64
    banks_per_channel: int = 16
    #: One PU per two banks.
    banks_per_pu: int = 2
    #: fp16 MACs per PU command (16-wide SIMD).
    macs_per_command: int = 16
    #: Commands issue at tCCD rate in PIM mode.
    command_rate_hz: float = 1.2e9
    #: Mode-switch (SB->PIM and back) overhead per kernel, seconds.
    mode_switch_s: float = 2.0e-6
    #: Row activation overhead amortized per row of operand data.
    row_activate_s: float = 45.0e-9
    #: Elements per DRAM row buffer per bank.
    row_elems: int = 512

    @property
    def n_pus(self) -> int:
        return (
            self.n_pseudo_channels * self.banks_per_channel // self.banks_per_pu
        )


@dataclass
class HbmPimEstimate:
    """Latency estimate for one module on HBM-PIM."""

    commands_per_pu: float
    rows_touched: float
    latency_s: float
    n_pus: int
    supported: bool
    reason: str = ""

    @property
    def latency(self) -> Latency:
        """The breakdown every ``Executable.profile()`` carries; a
        command-stream estimate has one bucket."""
        return Latency(kernel=self.latency_s)


class HbmPimEstimator:
    """Maps lowered UPMEM modules onto HBM-PIM PU command streams.

    Only MAC-shaped kernels (reductions combining with ``add``) are
    supported — exactly the operations HBM-PIM accelerates.  The UPMEM
    grid's DPU binding is reinterpreted as the *bank-level* binding, and
    tasklet tiling as the *PU-level* vector loop, the two-level mapping
    §8 describes.
    """

    def __init__(self, config: Optional[HbmPimConfig] = None) -> None:
        self.config = config or HbmPimConfig()

    def estimate(self, module: LoweredModule, total_macs: float) -> HbmPimEstimate:
        cfg = self.config
        if not module.transfers:
            return HbmPimEstimate(0, 0, 0.0, cfg.n_pus, False, "no tiles")
        # Total MAC work distributed over PUs, command-granular.
        commands = math.ceil(total_macs / cfg.macs_per_command)
        commands_per_pu = commands / cfg.n_pus
        # Operand bytes touched determine row activations.
        operand_elems = sum(
            t.tile_elems * module.n_dpus for t in module.transfer("h2d")
        )
        weight_elems = total_macs  # one weight element per MAC
        rows = (operand_elems + weight_elems) / (cfg.row_elems * cfg.n_pus)
        latency = (
            cfg.mode_switch_s
            + commands_per_pu / cfg.command_rate_hz
            + rows * cfg.row_activate_s
        )
        return HbmPimEstimate(
            commands_per_pu=commands_per_pu,
            rows_touched=rows,
            latency_s=latency,
            n_pus=cfg.n_pus,
            supported=True,
        )

    def supports(self, combiner: Optional[str]) -> bool:
        """HBM-PIM accelerates MAC reductions only."""
        return combiner == "add"
