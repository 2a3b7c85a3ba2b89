"""Per-trial metrics and the single-trial execution primitive.

:class:`TrialMetrics` is the unit of result that the sweep subsystem caches,
ships across process boundaries and aggregates into series.  It lives here
(rather than in :mod:`repro.experiments.runner`, which re-exports it for
backwards compatibility) so the sweep package never imports the experiments
package at module level — the experiments drivers import *us*.

:func:`execute_trial` runs one trial of a data point: the workload and
execution streams are the two children of the trial's
:class:`numpy.random.SeedSequence` (spawn position *k* of the point's seed,
so every heuristic at one point sees the same arrivals), the heuristic is
freshly built, and the metrics are trimmed with the configured
warmup/cooldown windows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..simulator.engine import SimulatorConfig, simulate
from ..simulator.metrics import SimulationResult
from ..workload.generator import WorkloadConfig, WorkloadTrace, generate_workload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..heuristics.base import MappingHeuristic
    from ..pet.matrix import PETMatrix

__all__ = ["TrialMetrics", "execute_trial"]


@dataclass(frozen=True)
class TrialMetrics:
    """Headline metrics of one simulated trial."""

    robustness_percent: float
    fairness_variance: float
    total_cost: float
    cost_per_percent_on_time: float
    completed_on_time: int
    total_tasks: int
    per_type_completion_percent: tuple[float, ...]

    @classmethod
    def from_result(
        cls, result: SimulationResult, *, warmup: int, cooldown: int
    ) -> "TrialMetrics":
        per_type = result.per_type_completion_percent(warmup=warmup, cooldown=cooldown)
        return cls(
            robustness_percent=result.robustness_percent(warmup=warmup, cooldown=cooldown),
            fairness_variance=result.fairness_variance(warmup=warmup, cooldown=cooldown),
            total_cost=result.total_cost(),
            cost_per_percent_on_time=result.cost_per_percent_on_time(
                warmup=warmup, cooldown=cooldown
            ),
            completed_on_time=result.completed_on_time(warmup=warmup, cooldown=cooldown),
            total_tasks=result.num_tasks,
            per_type_completion_percent=tuple(float(x) for x in per_type),
        )

    # ------------------------------------------------------------------
    # JSON round-trip used by the on-disk result cache.
    def to_payload(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "TrialMetrics":
        return cls(
            robustness_percent=float(payload["robustness_percent"]),
            fairness_variance=float(payload["fairness_variance"]),
            total_cost=float(payload["total_cost"]),
            cost_per_percent_on_time=float(payload["cost_per_percent_on_time"]),
            completed_on_time=int(payload["completed_on_time"]),
            total_tasks=int(payload["total_tasks"]),
            per_type_completion_percent=tuple(
                float(x) for x in payload["per_type_completion_percent"]
            ),
        )


def execute_trial(
    *,
    pet: "PETMatrix",
    heuristic: "MappingHeuristic",
    workload: WorkloadConfig | None,
    trial_seed: np.random.SeedSequence,
    sim_config: SimulatorConfig,
    machine_prices: Sequence[float] | None = None,
    warmup: int,
    cooldown: int,
    trace: WorkloadTrace | None = None,
) -> TrialMetrics:
    """Run one workload trial and distil it into :class:`TrialMetrics`.

    ``trial_seed`` is the trial's child of the point's master
    :class:`~numpy.random.SeedSequence`; its own two children seed the
    workload and execution streams, exactly as the serial runner always did.

    When ``trace`` is given (trace replay) the recorded trace is fed to the
    simulator unchanged for *every* trial; the workload stream is still
    spawned — keeping the execution stream bit-identical whether a trace
    was replayed or synthesised — but never drawn from.
    """
    workload_seed, execution_seed = trial_seed.spawn(2)
    if trace is None:
        if workload is None:
            raise ValueError("either a workload config or a trace is required")
        trace = generate_workload(
            workload, pet, rng=np.random.default_rng(workload_seed)
        )
    elif trace.num_task_types > pet.num_task_types:
        # Fail before the simulator dereferences an out-of-range PET row —
        # this is where a replayed trace and the PET first meet, so every
        # entry point (driver, CLI, programmatic SweepSpec.from_traces)
        # inherits the check.
        raise ValueError(
            f"trace uses {trace.num_task_types} task types but the PET "
            f"only has {pet.num_task_types}"
        )
    result = simulate(
        pet,
        heuristic,
        trace,
        config=sim_config,
        machine_prices=machine_prices,
        rng=np.random.default_rng(execution_seed),
    )
    return TrialMetrics.from_result(result, warmup=warmup, cooldown=cooldown)
