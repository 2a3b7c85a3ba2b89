"""Figure 5 benchmark — impact of the deferring and dropping thresholds.

Sweeps the deferring threshold for dropping thresholds of 25/50/75 % under
high oversubscription and prints the robustness series of Figure 5.
Paper shape: a higher deferring threshold gives higher robustness, and with a
high enough deferring threshold the dropping threshold stops mattering.
"""

from __future__ import annotations

from repro.experiments import run_fig5


def test_fig5_threshold_sweep(benchmark, bench_config):
    result = benchmark.pedantic(
        lambda: run_fig5(
            bench_config,
            dropping_thresholds=(0.25, 0.50, 0.75),
            gap_step=0.10,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())

    def robustness(dropping, deferring):
        return result.series[(dropping, deferring)].mean_robustness()

    def defer_values(dropping):
        return sorted(defer for drop, defer in result.series if drop == dropping)

    # Main trend: for the 25% dropping threshold, the highest deferring
    # threshold should beat the lowest one.
    defers = defer_values(0.25)
    low_defer = robustness(0.25, defers[0])
    high_defer = robustness(0.25, defers[-1])
    assert high_defer >= low_defer - 2.0

    # Convergence: at the highest deferring threshold the three dropping
    # thresholds end up within a modest band of one another.
    finals = [robustness(drop, defer_values(drop)[-1]) for drop in (0.25, 0.50, 0.75)]
    assert max(finals) - min(finals) <= 20.0

    benchmark.extra_info["robustness_drop25_lowest_defer"] = low_defer
    benchmark.extra_info["robustness_drop25_highest_defer"] = high_defer
    benchmark.extra_info["final_robustness_by_dropping"] = dict(
        zip(("25%", "50%", "75%"), finals)
    )
