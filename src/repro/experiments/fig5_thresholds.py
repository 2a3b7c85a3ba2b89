"""Figure 5 — impact of the deferring and dropping thresholds.

For each dropping threshold in {25 %, 50 %, 75 %} the deferring threshold is
swept from the dropping threshold up to 90 %, under high oversubscription,
with PAM.  The paper finds that a higher deferring threshold always helps and
that once the deferring threshold is high enough the dropping threshold stops
mattering; 50 % dropping / 90 % deferring is adopted for the remaining
experiments.
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

__all__ = ["Fig5Result", "run_fig5", "DEFAULT_DROPPING_THRESHOLDS"]

#: Dropping thresholds examined in the paper.
DEFAULT_DROPPING_THRESHOLDS: tuple[float, ...] = (0.25, 0.50, 0.75)

#: Highest deferring threshold examined (the paper stops at 90 %).
MAX_DEFER = 0.90


@dataclass
class Fig5Result:
    """Robustness for every (dropping threshold, deferring threshold) pair."""

    level: str
    series: dict[tuple[float, float], SeriesResult] = field(default_factory=dict)

    def robustness(self, dropping: float, deferring: float) -> float:
        return self.series[(round(dropping, 4), round(deferring, 4))].mean_robustness()

    def defer_values(self, dropping: float) -> list[float]:
        return sorted(d for (drop, d) in self.series if abs(drop - dropping) < 1e-9)

    def rows(self) -> list[list[object]]:
        rows = []
        for (dropping, deferring), series in sorted(self.series.items()):
            summary = series.robustness()
            rows.append([dropping * 100, deferring * 100, summary.mean, summary.ci95])
        return rows

    def to_text(self) -> str:
        return (
            f"Figure 5 — robustness vs deferring threshold (level {self.level})\n"
            + format_table(
                ["drop threshold %", "defer threshold %", "robustness %", "ci95"],
                self.rows(),
            )
        )


def run_fig5(
    config: ExperimentConfig | None = None,
    *,
    level: str = "34k",
    dropping_thresholds: Sequence[float] = DEFAULT_DROPPING_THRESHOLDS,
    gap_step: float = 0.10,
    max_defer: float = MAX_DEFER,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> Fig5Result:
    """Regenerate Figure 5 (defer-threshold sweep per dropping threshold).

    ``gap_step`` controls the sweep resolution; the paper uses 5 % steps,
    the quick default uses 10 % to halve the number of simulations.
    """
    config = config or ExperimentConfig()
    if gap_step <= 0:
        raise ValueError("gap_step must be positive")
    pet = PETSpec(kind="spec", seed=config.seed)
    workload = workload_for_level(level, config)
    keys: list[tuple[float, float]] = []
    points: list[SweepPoint] = []
    for dropping in dropping_thresholds:
        deferring = dropping
        while deferring <= max_defer + 1e-9:
            thresholds = PruningThresholds(dropping=dropping, deferring=min(deferring, 1.0))
            keys.append((round(dropping, 4), round(min(deferring, 1.0), 4)))
            points.append(
                SweepPoint(
                    label=f"drop={dropping:.0%},defer={deferring:.0%}",
                    pet=pet,
                    heuristic=HeuristicSpec(name="PAM", thresholds=thresholds),
                    workload=workload,
                    config=config,
                )
            )
            deferring += gap_step
    outcome = run_sweep(
        SweepSpec(points=tuple(points)),
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
    )
    result = Fig5Result(level=level)
    result.series.update(outcome.series_map(keys))
    return result
