"""Figure 7 benchmark — robustness of PAM/PAMF vs the baseline heuristics.

Prints the robustness of all six heuristics at both oversubscription levels.
Paper shape: PAM is the clear winner, PAMF trades robustness for fairness and
lands near MOC (the best baseline), MM trails far behind, MSD and MMU do
worst because they prioritise the least-likely-to-succeed tasks.
"""

from __future__ import annotations

from repro.experiments import run_fig7


def test_fig7_robustness_comparison(benchmark, bench_config):
    result = benchmark.pedantic(
        lambda: run_fig7(bench_config, levels=("19k", "34k")),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())
    robustness = {key: series.mean_robustness() for key, series in result.series.items()}

    for level in ("19k", "34k"):
        pam = robustness[(level, "PAM")]
        pamf = robustness[(level, "PAMF")]
        moc = robustness[(level, "MOC")]
        mm = robustness[(level, "MM")]
        msd = robustness[(level, "MSD")]
        mmu = robustness[(level, "MMU")]
        # Who wins: the pruning-aware mapper dominates every baseline.
        assert pam > max(moc, mm, msd, mmu)
        # PAMF gives up some robustness for fairness but stays competitive.
        assert pamf >= mm - 5.0
        # The robustness-based baseline does not lose to the deadline chasers.
        assert moc >= min(msd, mmu) - 2.0
        ranking = sorted(
            (name for lvl, name in robustness if lvl == level),
            key=lambda name: -robustness[(level, name)],
        )
        benchmark.extra_info[f"{level}_ranking"] = ranking
        benchmark.extra_info[f"{level}_pam_over_mm_factor"] = pam / mm if mm > 0 else float("inf")
