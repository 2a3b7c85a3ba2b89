"""Figure 4 benchmark — dynamic engagement of probabilistic task dropping.

Regenerates the robustness-vs-lambda curves (plain toggle vs Schmitt trigger)
under high oversubscription and prints the series the paper's Figure 4 shows.
Paper shape: robustness increases with lambda and the Schmitt trigger is at
least as good as the single-threshold toggle; lambda = 0.9 is selected.
"""

from __future__ import annotations

from repro.experiments import run_fig4

LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def test_fig4_lambda_sweep(benchmark, bench_config):
    result = benchmark.pedantic(
        lambda: run_fig4(bench_config, lambdas=LAMBDAS),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())

    robustness_values = [s.mean_robustness() for s in result.series.values()]
    assert all(0.0 <= value <= 100.0 for value in robustness_values)
    # The paper's qualitative takeaway: reacting strongly to the latest
    # misses (high lambda) is at least as good as weighing history heavily.
    def schmitt(lam):
        return result.series[(lam, "schmitt")].mean_robustness()

    high = schmitt(0.9)
    low = schmitt(0.1)
    assert high >= low - 5.0

    benchmark.extra_info["best_lambda_schmitt"] = max(LAMBDAS, key=schmitt)
    benchmark.extra_info["robustness_lambda_0.9_schmitt"] = high
    benchmark.extra_info["robustness_lambda_0.1_schmitt"] = low
