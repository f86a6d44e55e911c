"""Walk through the PIM-aware optimizations of paper §5.3 / Fig. 8.

Lowers a misaligned GEMV (245x245, which tiles imperfectly) at each
optimization level and shows how the kernel transforms:

* O0 — guarded element-wise copies, boundary checks everywhere;
* O1 — DMA-aware boundary-check elimination (mram_read/mram_write bursts);
* O2 — loop-bound tightening (dead iterations removed from loop bounds);
* O3 — invariant branch hoisting with partial-dead-code sinking.

Run:  python examples/boundary_optimizations.py
"""

import numpy as np

from repro.autotune.compile import default_engine
from repro.optim import LEVELS
from repro.upmem import FunctionalExecutor
from repro.upmem.system import PerformanceModel
from repro.workloads import gemv

PARAMS = {
    "m_dpus": 8,
    "k_dpus": 1,
    "n_tasklets": 4,
    "cache": 16,
    "host_threads": 1,
}


def main() -> None:
    wl = gemv(245, 245)
    inputs = wl.random_inputs(0)
    ref = wl.reference_output(inputs)
    model = PerformanceModel()

    print(f"{'level':6} {'kernel (ms)':>12} {'instructions':>14} "
          f"{'branches':>10} {'DMA calls':>10}")
    baseline = None
    for level in LEVELS:
        module = default_engine().compile(wl, PARAMS, opt_level=level).module
        (out,) = FunctionalExecutor(module).run(inputs)
        np.testing.assert_allclose(out, ref, rtol=1e-3)
        prof = model.profile(module)
        baseline = baseline or prof.latency.kernel
        print(
            f"{level:6} {prof.latency.kernel*1e3:12.4f}"
            f" {prof.kernel_counts.slots/module.n_dpus:14.0f}"
            f" {prof.kernel_counts.branches/module.n_dpus:10.0f}"
            f" {prof.dpu.dma_calls:10.0f}"
            f"   ({baseline/prof.latency.kernel:.2f}x vs O0)"
        )

    print("\n--- O3 kernel TIR (note dma_copy, min() bounds, hoisted ifs) ---")
    module = default_engine().compile(wl, PARAMS, opt_level="O3").module
    print("\n".join(module.kernel.__repr__().splitlines()[:25]))


if __name__ == "__main__":
    main()
