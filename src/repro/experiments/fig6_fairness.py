"""Figure 6 — evaluating the impact of the fairness factor.

Sweeps the PAMF fairness factor from 0 % (no fairness) to 25 % at the two
headline oversubscription levels and reports, for each point, the variance of
per-task-type completion percentages (lower = fairer) and the overall
robustness (printed above the bars in the paper's figure).  The paper finds a
5 % fairness factor buys a large fairness improvement for a few percentage
points of robustness, with diminishing returns beyond.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from pathlib import Path

from ..pruning.thresholds import PruningThresholds
from ..sweep import HeuristicSpec, PETSpec, SweepPoint, SweepSpec, run_sweep
from ..sweep.progress import ProgressCallback
from ..utils.tables import format_table
from .config import ExperimentConfig, workload_for_level
from .runner import SeriesResult

__all__ = ["Fig6Result", "run_fig6", "DEFAULT_FAIRNESS_FACTORS"]

#: Fairness factors examined in the paper (0 % .. 25 %).
DEFAULT_FAIRNESS_FACTORS: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)

#: Oversubscription levels shown in Figure 6.
DEFAULT_LEVELS: tuple[str, ...] = ("19k", "34k")


@dataclass
class Fig6Result:
    """Fairness variance and robustness per (level, fairness factor)."""

    series: dict[tuple[str, float], SeriesResult] = field(default_factory=dict)

    def fairness_variance(self, level: str, factor: float) -> float:
        return self.series[(level, round(factor, 4))].fairness_variance().mean

    def robustness(self, level: str, factor: float) -> float:
        return self.series[(level, round(factor, 4))].mean_robustness()

    def factors(self, level: str) -> list[float]:
        return sorted(f for (lvl, f) in self.series if lvl == level)

    def rows(self) -> list[list[object]]:
        rows = []
        for (level, factor), series in sorted(self.series.items()):
            rows.append(
                [
                    level,
                    factor * 100,
                    series.fairness_variance().mean,
                    series.robustness().mean,
                    series.robustness().ci95,
                ]
            )
        return rows

    def to_text(self) -> str:
        return "Figure 6 — fairness factor sweep (PAMF)\n" + format_table(
            ["level", "fairness factor %", "variance of type completion %", "robustness %", "ci95"],
            self.rows(),
        )


def run_fig6(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = DEFAULT_LEVELS,
    fairness_factors: Sequence[float] = DEFAULT_FAIRNESS_FACTORS,
    thresholds: PruningThresholds | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> Fig6Result:
    """Regenerate Figure 6 (fairness/robustness trade-off of PAMF)."""
    config = config or ExperimentConfig()
    thresholds = thresholds or PruningThresholds()
    pet = PETSpec(kind="spec", seed=config.seed)
    keys: list[tuple[str, float]] = []
    points: list[SweepPoint] = []
    for level in levels:
        workload = workload_for_level(level, config)
        for factor in fairness_factors:
            keys.append((level, round(factor, 4)))
            points.append(
                SweepPoint(
                    label=f"{level},factor={factor:.0%}",
                    pet=pet,
                    heuristic=HeuristicSpec(
                        name="PAMF", thresholds=thresholds, fairness_factor=factor
                    ),
                    workload=workload,
                    config=config,
                )
            )
    outcome = run_sweep(
        SweepSpec(points=tuple(points)),
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
    )
    result = Fig6Result()
    result.series.update(outcome.series_map(keys))
    return result
