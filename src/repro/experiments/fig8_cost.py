"""Figure 8 — cost benefit of probabilistic pruning.

Maps cloud-style prices onto the simulated machines, tracks each machine's
busy time, and reports incurred cost divided by the percentage of on-time
completions for PAM, PAMF, MOC and MM at the two headline oversubscription
levels.  The paper finds PAM/PAMF roughly 40 % cheaper per completed-on-time
percentage point than MOC and the other baselines, because they stop spending
machine time on tasks that will not make their deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from pathlib import Path

from ..pruning.thresholds import PruningThresholds
from ..simulator.cost import default_prices_for
from ..sweep import HeuristicSpec, PETSpec, SweepSpec, pet_for, run_sweep
from ..sweep.progress import ProgressCallback
from ..utils.tables import format_table
from .config import ExperimentConfig, workload_for_level
from .runner import SeriesResult

__all__ = ["Fig8Result", "run_fig8"]

#: Heuristics charted in Figure 8 (MSD/MMU are "unchartable" in the paper).
DEFAULT_HEURISTICS: tuple[str, ...] = ("PAM", "PAMF", "MOC", "MM")

DEFAULT_LEVELS: tuple[str, ...] = ("19k", "34k")


@dataclass
class Fig8Result:
    """Cost per percent of on-time completions per (level, heuristic)."""

    series: dict[tuple[str, str], SeriesResult] = field(default_factory=dict)

    def cost_per_percent(self, level: str, heuristic: str) -> float:
        return self.series[(level, heuristic)].cost_per_percent().mean

    def total_cost(self, level: str, heuristic: str) -> float:
        return self.series[(level, heuristic)].cost().mean

    def saving_vs(self, level: str, heuristic: str, baseline: str) -> float:
        """Relative cost-per-percent saving of ``heuristic`` over ``baseline``."""
        ours = self.cost_per_percent(level, heuristic)
        theirs = self.cost_per_percent(level, baseline)
        if theirs == 0:
            return 0.0
        return 1.0 - ours / theirs

    def rows(self) -> list[list[object]]:
        rows = []
        for (level, heuristic), series in sorted(self.series.items()):
            rows.append(
                [
                    level,
                    heuristic,
                    series.cost().mean,
                    series.robustness().mean,
                    series.cost_per_percent().mean,
                ]
            )
        return rows

    def to_text(self) -> str:
        return "Figure 8 — incurred cost per percent of on-time completions\n" + format_table(
            ["level", "heuristic", "total cost", "robustness %", "cost / percent on-time"],
            self.rows(),
            float_format="{:.3f}",
        )


def run_fig8(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = DEFAULT_LEVELS,
    heuristics: Sequence[str] = DEFAULT_HEURISTICS,
    thresholds: PruningThresholds | None = None,
    fairness_factor: float = 0.05,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> Fig8Result:
    """Regenerate Figure 8 (cost benefit of pruning)."""
    config = config or ExperimentConfig()
    levels = list(dict.fromkeys(levels))
    heuristics = list(dict.fromkeys(heuristics))
    pet_spec = PETSpec(kind="spec", seed=config.seed)
    prices = tuple(default_prices_for(pet_for(pet_spec).machine_names))
    spec = SweepSpec.from_grid(
        pet=pet_spec,
        heuristics={
            name: HeuristicSpec(
                name=name, thresholds=thresholds, fairness_factor=fairness_factor
            )
            for name in heuristics
        },
        workloads={level: workload_for_level(level, config) for level in levels},
        config=config,
        machine_prices=prices,
    )
    outcome = run_sweep(spec, jobs=jobs, cache_dir=cache_dir, progress=progress)
    result = Fig8Result()
    keys = [(level, name) for level in levels for name in heuristics]
    result.series.update(outcome.series_map(keys))
    return result
