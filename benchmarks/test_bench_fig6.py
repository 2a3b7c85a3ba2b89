"""Figure 6 benchmark — the PAMF fairness factor sweep.

Prints, for each oversubscription level and fairness factor, the variance of
per-task-type completion percentages (lower = fairer) and the overall
robustness.  Paper shape: a small (≈5 %) fairness factor markedly reduces the
variance at the cost of a few robustness points; larger factors give
diminishing returns.
"""

from __future__ import annotations

from repro.experiments import run_fig6

FACTORS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)


def test_fig6_fairness_sweep(benchmark, bench_config):
    result = benchmark.pedantic(
        lambda: run_fig6(bench_config, levels=("19k", "34k"), fairness_factors=FACTORS),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())

    def fairness_variance(level, factor):
        return result.series[(level, factor)].fairness_variance().mean

    def robustness(level, factor):
        return result.series[(level, factor)].mean_robustness()

    for level in ("19k", "34k"):
        no_fairness_variance = fairness_variance(level, 0.0)
        fair_variance = min(fairness_variance(level, f) for f in FACTORS[1:])
        # Fairness should never make the per-type variance dramatically worse.
        assert fair_variance <= no_fairness_variance + 5.0
        # Robustness stays in a sane range across the sweep.
        for factor in FACTORS:
            assert 0.0 <= robustness(level, factor) <= 100.0

    benchmark.extra_info["variance_34k_factor_0"] = fairness_variance("34k", 0.0)
    benchmark.extra_info["variance_34k_factor_5"] = fairness_variance("34k", 0.05)
    benchmark.extra_info["robustness_34k_factor_0"] = robustness("34k", 0.0)
    benchmark.extra_info["robustness_34k_factor_5"] = robustness("34k", 0.05)
