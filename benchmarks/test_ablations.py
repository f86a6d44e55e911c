"""Ablations beyond the paper's figures (DESIGN.md §5).

* transfer-mode ablation: element vs bulk vs bank-parallel (Fig. 7's
  optimization ladder);
* search ablation: cost-model-guided evolution vs pure random sampling;
* residency ablation: steady-state vs cold-start transfer accounting.
"""

import random

import repro
from repro.autotune import Tuner, autotune, param_space
from repro.autotune.compile import default_engine
from repro.harness import render_table
from repro.lowering import LowerOptions
from repro.upmem import UpmemConfig
from repro.upmem.system import PerformanceModel
from repro.workloads import make_workload, mtv

from .conftest import save_report

from tests.conftest import make_mtv_schedule  # reuse the schedule builder


def test_transfer_mode_ablation(benchmark):
    def run():
        rows = []
        model = PerformanceModel()
        for mode in ("element", "bulk", "parallel"):
            sch = make_mtv_schedule(2048, 2048, m_dpus=64, n_tasklets=16,
                                    cache=64)
            module = repro.compile(
                sch, options=LowerOptions(transfer_mode=mode)
            ).lowered
            prof = model.profile(module)
            rows.append(
                {
                    "mode": mode,
                    "h2d_ms": prof.latency.h2d * 1e3,
                    "d2h_ms": prof.latency.d2h * 1e3,
                    "total_ms": prof.latency.total * 1e3,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_transfer_modes",
        render_table(rows, title="Fig 7 ablation: transfer modes"),
    )
    by_mode = {r["mode"]: r["total_ms"] for r in rows}
    assert by_mode["parallel"] < by_mode["bulk"] < by_mode["element"]


def test_search_vs_random_ablation(benchmark):
    def run():
        wl = make_workload("mtv", "64MB")
        guided = autotune(wl, n_trials=48, seed=1).best_latency

        rng = random.Random(1)
        space = param_space(wl)
        model = PerformanceModel()
        best_random = float("inf")
        measured = 0
        attempts = 0
        while measured < 48 and attempts < 480:
            attempts += 1
            params = {k: rng.choice(v) for k, v in space.items()}
            artifact = default_engine().compile(wl, params)
            if not artifact.verified:
                continue
            measured += 1
            best_random = min(
                best_random, model.profile(artifact.module).latency.total
            )
        return guided, best_random

    guided, best_random = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_search_vs_random",
        f"guided: {guided*1e3:.3f} ms,  random: {best_random*1e3:.3f} ms",
    )
    assert guided <= best_random * 1.05


def test_residency_ablation(benchmark):
    def run():
        wl = mtv(4096, 4096)
        module = default_engine().compile(
            wl,
            {"m_dpus": 256, "k_dpus": 8, "n_tasklets": 16, "cache": 64,
             "host_threads": 16},
        ).module
        steady = PerformanceModel().profile(module).latency
        import dataclasses

        cold_module = dataclasses.replace(module, const_inputs=frozenset())
        cold_cfg = UpmemConfig().with_(resident_partitioned_inputs=False)
        cold = PerformanceModel(cold_cfg).profile(cold_module).latency
        return steady, cold

    steady, cold = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_residency",
        f"steady-state h2d: {steady.h2d*1e3:.3f} ms,"
        f" cold-start h2d: {cold.h2d*1e3:.3f} ms",
    )
    # Cold start pays the weight matrix; steady state only the vector.
    assert cold.h2d > steady.h2d * 5
