"""Fig. 15 — autotuning overhead: round times and candidate scatter."""

from repro.harness import fig15_tuning_overhead, text_report

from .conftest import save_report


def test_fig15_tuning_overhead(benchmark):
    data = benchmark.pedantic(
        fig15_tuning_overhead,
        kwargs=dict(m=4096, k=4096, n_trials=48),
        rounds=1,
        iterations=1,
    )
    upmem = data["upmem_measured"]
    cpu = data["cpu_measured"]
    save_report(
        "fig15_tuning_overhead", text_report(fig15_tuning_overhead, data)
    )

    # The paper's observation: UPMEM candidates show much larger spread
    # (bad tiling configurations are catastrophically slow) than CPU ones.
    upmem_spread = max(upmem) / min(upmem)
    cpu_spread = max(cpu) / min(cpu)
    assert upmem_spread > cpu_spread
    assert upmem_spread > 5.0
    assert data["upmem_round_times"]
