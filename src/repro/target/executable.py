"""The uniform result of ``repro.compile``: run / run_batch / profile.

Every target returns an :class:`Executable`; callers interact with one
interface regardless of whether the backend is the simulated UPMEM
machine (full functional execution) or a roofline model (numpy reference
execution, analytic latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..lowering import LoweredModule
from ..tir import stmt_to_str
from ..upmem import FunctionalExecutor
from ..upmem.emitter import emit_kernel_c
from ..upmem.system import Latency, PerformanceModel, ProfileResult
from .executor import Executor

__all__ = [
    "Executable",
    "UpmemExecutable",
    "RooflineExecutable",
    "RooflineProfile",
]


class Executable:
    """A compiled program plus the target it was compiled for.

    Uniform surface:

    * :meth:`run` — functional execution against named numpy inputs;
    * :meth:`run_batch` — N independent inputs as one lane space, cut
      into byte-sized jobs (see :class:`Executor`);
    * :meth:`profile` — the target-native performance breakdown;
    * :attr:`latency` — total predicted/simulated seconds, comparable
      across targets.
    """

    def __init__(
        self,
        target: Any,
        workload: Any = None,
        params: Optional[Dict[str, int]] = None,
    ) -> None:
        self.target = target
        self.workload = workload
        #: Schedule parameters the target chose/was given (None when the
        #: target has no parameter space, e.g. rooflines).
        self.params = params

    def run_batch(
        self, batch: Sequence[Dict[str, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Execute independent input dicts; results in input order.

        The default treats each item as one unit of work the size of its
        input arrays (right for a roofline executable, whose ``run`` is
        one numpy expression over them) and
        lets :meth:`Executor.jobs` cut the batch: small batches run in
        order on the caller's thread, big ones as a few contiguous jobs
        on a pool.  An empty batch returns ``[]`` without touching any
        pool.
        """
        batch = list(batch)
        if not batch:
            return []
        executor = Executor()
        # Items of one program bind same-shaped inputs.
        item_bytes = sum(
            getattr(arr, "nbytes", 0) for arr in (batch[0] or {}).values()
        )
        outs = executor.map(
            lambda job: [self.run(batch[i]) for i in job],
            executor.jobs(len(batch), item_bytes),
        )
        return [out for job in outs for out in job]

    @property
    def latency(self) -> float:
        """Total predicted latency in seconds."""
        raise NotImplementedError

    def _named_inputs(self, inputs, named) -> Dict[str, np.ndarray]:
        data = dict(inputs or {})
        data.update(named)
        return data


class UpmemExecutable(Executable):
    """A program lowered for the simulated UPMEM machine (or one of the
    PrIM/SimplePIM baseline structures, which share its substrate).

    Holds the :class:`~repro.lowering.LoweredModule`, the functional
    executor over it and its profile; ``profile_override`` lets baseline
    targets substitute a framework-adjusted profile (SimplePIM's
    documented overheads) while keeping functional execution.
    """

    def __init__(
        self,
        lowered: LoweredModule,
        target: Any,
        workload: Any = None,
        params: Optional[Dict[str, int]] = None,
        profile_override: Optional[ProfileResult] = None,
    ) -> None:
        super().__init__(target, workload, params)
        self.lowered = lowered
        #: Phased grid execution (``prepare`` / ``run_points`` /
        #: ``finalize``) in the ``REPRO_SIM_MODE`` backend.
        self.executor = FunctionalExecutor(lowered)
        self._profile = profile_override

    # -- schedule/debugging surface -----------------------------------------
    def script(self) -> str:
        """Human-readable kernel TIR."""
        return stmt_to_str(self.lowered.kernel)

    def source(self) -> str:
        """UPMEM-C rendering of the kernel."""
        return emit_kernel_c(self.lowered)

    # -- execution ----------------------------------------------------------
    def run(self, inputs=None, **named) -> List[np.ndarray]:
        return self.run_batch([self._named_inputs(inputs, named)])[0]

    def run_batch(self, batch) -> List[List[np.ndarray]]:
        """Run the batch as one lane space of the vectorized simulator.

        The B items are stacked on the vectorizer's lane axis — lane
        ``i * G + g`` is DPU grid point ``g`` of item ``i`` — so a batch
        of small programs is one vector call over ``B x G`` lanes rather
        than B calls (``host_pre``/``host_post`` stay per item).  The
        lane space is cut into jobs by working-set bytes (lanes x the
        per-DPU MRAM/WRAM footprint, :meth:`Executor.jobs`): below the
        crossover it is one job on the caller's thread, above it a few
        contiguous jobs on a pool, so a single 64MB item still
        parallelizes across its DPUs.  Lanes write disjoint tile regions
        of their own item's outputs, making the result bit-for-bit
        identical however the space is cut.  An empty batch returns
        ``[]`` without preparing any state.
        """
        batch = list(batch)
        if not batch:
            return []
        fexec, lowered = self.executor, self.lowered
        executor = Executor()
        states = [fexec.prepare(dict(inputs or {})) for inputs in batch]
        executor.map(
            lambda job: fexec.run_points(states, job),
            executor.jobs(
                len(states) * lowered.n_dpus, lowered.local_bytes_per_dpu()
            ),
        )
        return [fexec.finalize(state) for state in states]

    # -- performance --------------------------------------------------------
    def profile(self) -> ProfileResult:
        """Simulated latency breakdown on the target's machine (the
        model is deterministic: computed once)."""
        if self._profile is None:
            self._profile = PerformanceModel(self.target.config).profile(
                self.lowered
            )
        return self._profile

    @property
    def latency(self) -> float:
        return self.profile().latency.total


@dataclass
class RooflineProfile:
    """Analytic profile of a roofline target (single-bucket breakdown)."""

    #: The whole roofline time is attributed to the kernel bucket; the
    #: fixed dispatch overhead is split out as ``launch``.
    latency: Latency
    effective_bandwidth: float = 0.0
    peak_flops: float = 0.0


class RooflineExecutable(Executable):
    """CPU roofline baseline: analytic latency, numpy execution.

    ``run`` evaluates the workload's reference implementation, so the
    roofline target is a functional peer of the UPMEM path (useful for
    cross-checking outputs target-to-target).
    """

    def __init__(self, target: Any, workload: Any, model: Any) -> None:
        super().__init__(target, workload, params=None)
        self.model = model

    def run(self, inputs=None, **named) -> List[np.ndarray]:
        data = self._named_inputs(inputs, named)
        args = []
        for tensor in self.workload.inputs:
            try:
                args.append(data[tensor.name])
            except KeyError:
                raise KeyError(
                    f"missing input {tensor.name!r}; expected"
                    f" {[t.name for t in self.workload.inputs]}"
                ) from None
        return [self.workload.reference(*args)]

    def profile(self) -> RooflineProfile:
        total = self.model.latency(self.workload)
        overhead = self.model.overhead_s
        return RooflineProfile(
            latency=Latency(kernel=total - overhead, launch=overhead),
            effective_bandwidth=self.model.effective_bandwidth,
            peak_flops=self.model.peak_flops,
        )

    @property
    def latency(self) -> float:
        return self.model.latency(self.workload)
