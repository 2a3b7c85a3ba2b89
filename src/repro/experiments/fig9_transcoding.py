"""Figure 9 — PAMF vs MinMin on the video-transcoding workload.

Uses the 4-task-type x 4-VM-type transcoding PET (the offline stand-in for
the paper's 660-video EC2 trace) and compares PAMF against MM at four
oversubscription levels.  The paper's observation: PAMF's advantage grows
with the oversubscription level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from pathlib import Path

from ..pruning.thresholds import PruningThresholds
from ..simulator.cost import default_prices_for
from ..sweep import (
    HeuristicSpec,
    PETSpec,
    SweepSpec,
    TraceSpec,
    pet_for,
    run_sweep,
    trace_for,
)
from ..sweep.progress import ProgressCallback
from ..utils.tables import format_table
from .config import ExperimentConfig, transcoding_workload_for_level
from .runner import SeriesResult

__all__ = ["Fig9Result", "run_fig9", "coerce_fig9_trace", "TRACE_LEVEL_LABEL"]

DEFAULT_LEVELS: tuple[str, ...] = ("10k", "12.5k", "15k", "17.5k")

DEFAULT_HEURISTICS: tuple[str, ...] = ("PAMF", "MM")

#: Level label used when the driver replays a recorded trace instead of
#: sweeping the synthetic oversubscription levels.
TRACE_LEVEL_LABEL = "replay"


@dataclass
class Fig9Result:
    """Robustness per (oversubscription level, heuristic) on transcoding."""

    series: dict[tuple[str, str], SeriesResult] = field(default_factory=dict)

    def robustness(self, level: str, heuristic: str) -> float:
        return self.series[(level, heuristic)].mean_robustness()

    def advantage(self, level: str, heuristic: str = "PAMF", baseline: str = "MM") -> float:
        """Robustness advantage (percentage points) of PAMF over MM."""
        return self.robustness(level, heuristic) - self.robustness(level, baseline)

    def levels(self) -> list[str]:
        return sorted({lvl for lvl, _ in self.series})

    def rows(self) -> list[list[object]]:
        rows = []
        for (level, heuristic), series in sorted(self.series.items()):
            summary = series.robustness()
            rows.append([level, heuristic, summary.mean, summary.ci95])
        return rows

    def to_text(self) -> str:
        return "Figure 9 — PAMF vs MM on the video-transcoding workload\n" + format_table(
            ["level", "heuristic", "robustness %", "ci95"], self.rows()
        )


def coerce_fig9_trace(trace: str | Path | TraceSpec, *, seed: int = 2019) -> TraceSpec:
    """Coerce a trace argument to a :class:`TraceSpec` and fail fast.

    Resolves the trace (memoised) and checks it fits the 4-type
    transcoding PET, so an incompatible recording is rejected with a clear
    message here rather than as an ``IndexError`` inside a worker process.
    Raises :class:`FileNotFoundError`/:class:`ValueError`; the CLI calls
    this *before* the driver so only genuine trace problems are converted
    to clean exits.
    """
    if not isinstance(trace, TraceSpec):
        trace = TraceSpec(path=str(trace))
    resolved = trace_for(trace)
    pet = pet_for(PETSpec(kind="transcoding", seed=seed))
    if resolved.num_task_types > pet.num_task_types:
        raise ValueError(
            f"trace uses {resolved.num_task_types} task types but the "
            f"transcoding PET only has {pet.num_task_types}; figure 9 "
            "replays transcoding-shaped traces (record one with "
            "'repro trace record --builder transcoding-660')"
        )
    return trace


def run_fig9(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = DEFAULT_LEVELS,
    heuristics: Sequence[str] = DEFAULT_HEURISTICS,
    thresholds: PruningThresholds | None = None,
    fairness_factor: float = 0.05,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
    trace: str | Path | TraceSpec | None = None,
) -> Fig9Result:
    """Regenerate Figure 9 (video-transcoding workload comparison).

    With ``trace`` (a trace-file path or a :class:`~repro.sweep.TraceSpec`)
    the synthetic oversubscription-level axis collapses to one
    ``"replay"`` level: every heuristic replays the identical recorded
    trace — the paper's actual Figure 9 methodology on its 660-video EC2
    workload, for which ``examples/transcoding_660.trace.json`` ships as
    the offline stand-in.
    """
    config = config or ExperimentConfig()
    heuristics = list(dict.fromkeys(heuristics))
    pet_spec = PETSpec(kind="transcoding", seed=config.seed)
    prices = tuple(default_prices_for(pet_for(pet_spec).machine_names))
    heuristic_specs = {
        name: HeuristicSpec(
            name=name, thresholds=thresholds, fairness_factor=fairness_factor
        )
        for name in heuristics
    }
    if trace is not None:
        trace = coerce_fig9_trace(trace, seed=config.seed)
        levels = [TRACE_LEVEL_LABEL]
        spec = SweepSpec.from_traces(
            pet=pet_spec,
            heuristics=heuristic_specs,
            traces={TRACE_LEVEL_LABEL: trace},
            config=config,
            machine_prices=prices,
        )
    else:
        levels = list(dict.fromkeys(levels))
        spec = SweepSpec.from_grid(
            pet=pet_spec,
            heuristics=heuristic_specs,
            workloads={
                level: transcoding_workload_for_level(level, config)
                for level in levels
            },
            config=config,
            machine_prices=prices,
        )
    outcome = run_sweep(spec, jobs=jobs, cache_dir=cache_dir, progress=progress)
    result = Fig9Result()
    keys = [(level, name) for level in levels for name in heuristics]
    result.series.update(outcome.series_map(keys))
    return result
