"""Figure 9 benchmark — PAMF vs MinMin on the video-transcoding workload.

Prints the robustness of PAMF and MM on the 4-VM transcoding system at four
oversubscription levels.  Paper shape: PAMF beats MinMin and its advantage
grows as the oversubscription level increases.
"""

from __future__ import annotations

from repro.experiments import run_fig9

LEVELS = ("10k", "12.5k", "15k", "17.5k")


def test_fig9_transcoding_workload(benchmark, bench_config):
    result = benchmark.pedantic(
        lambda: run_fig9(bench_config, levels=LEVELS),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.to_text())
    robustness = {key: series.mean_robustness() for key, series in result.series.items()}

    # PAMF's robustness advantage (percentage points) over MM per level.
    advantages = [robustness[(level, "PAMF")] - robustness[(level, "MM")] for level in LEVELS]
    # PAMF wins at the higher oversubscription levels...
    assert robustness[("17.5k", "PAMF")] > robustness[("17.5k", "MM")]
    assert robustness[("15k", "PAMF")] > robustness[("15k", "MM")]
    # ...and its advantage at the heaviest level exceeds the advantage at the
    # lightest level (the paper's "specifically as the level of
    # oversubscription increases").
    assert advantages[-1] >= advantages[0] - 2.0

    for level, advantage in zip(LEVELS, advantages):
        benchmark.extra_info[f"advantage_{level}"] = advantage
