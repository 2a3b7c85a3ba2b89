"""Figure 4 — dynamic engagement of probabilistic task dropping.

Sweeps the EWMA weight (lambda of Eq. 8) used by the oversubscription
detector and compares a plain single-threshold toggle ("default") against the
Schmitt-trigger toggle, under high oversubscription, with the PAM heuristic.
The paper observes that robustness grows with lambda (immediate reaction to
misses) and that the Schmitt trigger beats the single threshold; lambda = 0.9
is selected for the remaining experiments.
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

__all__ = ["Fig4Result", "run_fig4", "DEFAULT_LAMBDAS"]

#: Lambda values swept in the paper (0.1 .. 1.0).
DEFAULT_LAMBDAS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: The two toggle modes compared in Figure 4.
TOGGLE_MODES: tuple[str, ...] = ("default", "schmitt")


@dataclass
class Fig4Result:
    """Robustness for every (lambda, toggle mode) combination."""

    level: str
    series: dict[tuple[float, str], SeriesResult] = field(default_factory=dict)

    def robustness(self, lam: float, mode: str) -> float:
        return self.series[(lam, mode)].mean_robustness()

    def best_lambda(self, mode: str = "schmitt") -> float:
        candidates = [(lam, s.mean_robustness()) for (lam, m), s in self.series.items() if m == mode]
        return max(candidates, key=lambda item: item[1])[0]

    def rows(self) -> list[list[object]]:
        lambdas = sorted({lam for lam, _ in self.series})
        rows = []
        for lam in lambdas:
            row: list[object] = [lam]
            for mode in TOGGLE_MODES:
                summary = self.series[(lam, mode)].robustness()
                row.extend([summary.mean, summary.ci95])
            rows.append(row)
        return rows

    def to_text(self) -> str:
        header = ["lambda"]
        for mode in TOGGLE_MODES:
            header.extend([f"{mode} robustness %", f"{mode} ci95"])
        return (
            f"Figure 4 — robustness vs lambda (oversubscription level {self.level})\n"
            + format_table(header, self.rows())
        )


def run_fig4(
    config: ExperimentConfig | None = None,
    *,
    level: str = "34k",
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    thresholds: PruningThresholds | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> Fig4Result:
    """Regenerate Figure 4's two curves (via the sweep subsystem)."""
    config = config or ExperimentConfig()
    thresholds = thresholds or PruningThresholds()
    pet = PETSpec(kind="spec", seed=config.seed)
    workload = workload_for_level(level, config)
    keys: list[tuple[float, str]] = []
    points: list[SweepPoint] = []
    for lam in lambdas:
        for mode in TOGGLE_MODES:
            separation = 0.2 if mode == "schmitt" else 0.0
            keys.append((lam, mode))
            points.append(
                SweepPoint(
                    label=f"lambda={lam:.1f},{mode}",
                    pet=pet,
                    heuristic=HeuristicSpec(
                        name="PAM",
                        thresholds=thresholds,
                        ewma_weight=lam,
                        schmitt_separation=separation,
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
    result = Fig4Result(level=level)
    result.series.update(outcome.series_map(keys))
    return result
