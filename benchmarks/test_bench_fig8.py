"""Figure 8 benchmark — cost benefit of probabilistic pruning.

Prints the incurred cost per percentage point of on-time completions for
PAM, PAMF, MOC and MM at both oversubscription levels.  Paper shape: PAM and
PAMF are substantially (≈40 %) cheaper per completed percentage point than
MOC and MM, because they stop spending machine time on hopeless tasks.
"""

from __future__ import annotations

from repro.experiments import run_fig8


def test_fig8_cost_benefit(benchmark, bench_config):
    result = benchmark.pedantic(
        lambda: run_fig8(bench_config, levels=("19k", "34k")),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())

    def cost_per_percent(level, heuristic):
        return result.series[(level, heuristic)].cost_per_percent().mean

    def saving_vs(level, heuristic, baseline):
        """Relative cost-per-percent saving of ``heuristic`` over ``baseline``."""
        theirs = cost_per_percent(level, baseline)
        return 0.0 if theirs == 0 else 1.0 - cost_per_percent(level, heuristic) / theirs

    for level in ("19k", "34k"):
        pam = cost_per_percent(level, "PAM")
        mm = cost_per_percent(level, "MM")
        moc = cost_per_percent(level, "MOC")
        # Who wins: pruning lowers the normalised cost against both baselines.
        assert pam < mm
        assert pam < moc
        benchmark.extra_info[f"{level}_saving_vs_mm"] = saving_vs(level, "PAM", "MM")
        benchmark.extra_info[f"{level}_saving_vs_moc"] = saving_vs(level, "PAM", "MOC")

    # The paper reports savings of roughly 40%; require a substantial saving
    # at the higher oversubscription level.
    assert saving_vs("34k", "PAM", "MM") >= 0.2
