"""Figure 7 — robustness of PAM/PAMF against the baseline heuristics.

Runs all six heuristics at the two headline oversubscription levels and
reports the percentage of tasks completing on time.  The paper's shape: PAM
is the clear winner, PAMF trades some robustness for fairness and lands near
MOC (the strongest baseline), MM trails far behind, and MSD/MMU collapse
because they keep prioritising the tasks least likely to succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from pathlib import Path

from ..heuristics.registry import HEURISTIC_NAMES
from ..pruning.thresholds import PruningThresholds
from ..sweep import HeuristicSpec, PETSpec, SweepSpec, run_sweep
from ..sweep.progress import ProgressCallback
from ..utils.tables import format_table
from .config import ExperimentConfig, workload_for_level
from .runner import SeriesResult

__all__ = ["Fig7Result", "run_fig7"]

DEFAULT_LEVELS: tuple[str, ...] = ("19k", "34k")


@dataclass
class Fig7Result:
    """Robustness per (oversubscription level, heuristic)."""

    series: dict[tuple[str, str], SeriesResult] = field(default_factory=dict)

    def robustness(self, level: str, heuristic: str) -> float:
        return self.series[(level, heuristic)].mean_robustness()

    def heuristics(self) -> list[str]:
        return sorted({h for _, h in self.series})

    def levels(self) -> list[str]:
        return sorted({lvl for lvl, _ in self.series})

    def ranking(self, level: str) -> list[str]:
        """Heuristic names ordered from most to least robust at a level."""
        pairs = [(h, s.mean_robustness()) for (lvl, h), s in self.series.items() if lvl == level]
        return [h for h, _ in sorted(pairs, key=lambda item: -item[1])]

    def rows(self) -> list[list[object]]:
        rows = []
        for (level, heuristic), series in sorted(self.series.items()):
            summary = series.robustness()
            rows.append([level, heuristic, summary.mean, summary.ci95])
        return rows

    def to_text(self) -> str:
        return "Figure 7 — robustness comparison of mapping heuristics\n" + format_table(
            ["level", "heuristic", "robustness %", "ci95"], self.rows()
        )


def run_fig7(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = DEFAULT_LEVELS,
    heuristics: Sequence[str] = HEURISTIC_NAMES,
    thresholds: PruningThresholds | None = None,
    fairness_factor: float = 0.05,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> Fig7Result:
    """Regenerate Figure 7 (robustness of all heuristics at both levels)."""
    config = config or ExperimentConfig()
    levels = list(dict.fromkeys(levels))
    heuristics = list(dict.fromkeys(heuristics))
    spec = SweepSpec.from_grid(
        pet=PETSpec(kind="spec", seed=config.seed),
        heuristics={
            name: HeuristicSpec(
                name=name, thresholds=thresholds, fairness_factor=fairness_factor
            )
            for name in heuristics
        },
        workloads={level: workload_for_level(level, config) for level in levels},
        config=config,
    )
    outcome = run_sweep(spec, jobs=jobs, cache_dir=cache_dir, progress=progress)
    result = Fig7Result()
    keys = [(level, name) for level in levels for name in heuristics]
    result.series.update(outcome.series_map(keys))
    return result
