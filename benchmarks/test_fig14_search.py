"""Fig. 14 — balanced sampling + adaptive ε-greedy search convergence."""

from repro.harness import fig14_search_strategies, text_report

from .conftest import save_report


def test_fig14_search_strategy_convergence(benchmark):
    curves = benchmark.pedantic(
        fig14_search_strategies,
        kwargs=dict(m=4096, k=4096, n_trials=96, seed=0),
        rounds=1,
        iterations=1,
    )
    save_report(
        "fig14_search_strategies", text_report(fig14_search_strategies, curves)
    )
    finals = {name: curve[-1][1] for name, curve in curves.items()}

    # All variants improve over their first measurement.
    for name, curve in curves.items():
        assert curve[-1][1] >= curve[0][1], name
    # The combined ATiM strategy converges at least as high as default TVM
    # (paper: +21.2% after 1000 trials; direction check at 96 trials).
    assert finals["atim"] >= finals["default_tvm"] * 0.95
    best = max(finals.values())
    assert finals["atim"] >= best * 0.8
