"""Simulation results and the metrics reported in the paper's evaluation.

The primary metric is *robustness*: the percentage of tasks completing on or
before their deadlines (Section VII-A).  Following Section VI-B, a warm-up
and cool-down window of tasks is excluded so that only the oversubscribed
portion of the trial is evaluated.  Secondary metrics cover fairness
(variance of per-type completion percentages, Figure 6) and incurred cost
(Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import cost_per_percent_robustness, total_cost
from .task import DropReason, Task, TaskStatus

__all__ = ["SimulationCounters", "SimulationResult"]


@dataclass
class SimulationCounters:
    """Aggregate event counts collected over one simulation run."""

    mapping_events: int = 0
    assignments: int = 0
    deferrals: int = 0
    proactive_drops: int = 0
    deadline_miss_drops: int = 0
    evictions: int = 0
    completions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "mapping_events": self.mapping_events,
            "assignments": self.assignments,
            "deferrals": self.deferrals,
            "proactive_drops": self.proactive_drops,
            "deadline_miss_drops": self.deadline_miss_drops,
            "evictions": self.evictions,
            "completions": self.completions,
        }


@dataclass
class SimulationResult:
    """Everything measured during one simulated workload trial."""

    #: All tasks in arrival order, in their terminal state.
    tasks: tuple[Task, ...]
    #: Machine names, aligned with busy_times and prices.
    machine_names: tuple[str, ...]
    #: Busy time accumulated per machine (includes wasted time on evicted tasks).
    machine_busy_times: tuple[float, ...]
    #: Price per 1000 time units per machine.
    machine_prices: tuple[float, ...]
    #: Number of task types in the PET matrix.
    num_task_types: int
    #: Aggregate counters.
    counters: SimulationCounters = field(default_factory=SimulationCounters)
    #: Simulation time at which the run finished.
    end_time: int = 0

    # ------------------------------------------------------------------
    # Task selection
    # ------------------------------------------------------------------
    def evaluated_tasks(self, *, warmup: int = 0, cooldown: int = 0) -> tuple[Task, ...]:
        """Tasks kept for analysis after trimming warm-up / cool-down windows.

        The paper removes the first and last hundred tasks of each trial so
        only the oversubscribed portion is measured; trimming is by arrival
        order.  If trimming would remove everything, the untrimmed list is
        returned so metrics stay well defined on tiny smoke-test runs.
        """
        if warmup < 0 or cooldown < 0:
            raise ValueError("warmup and cooldown must be non-negative")
        if warmup + cooldown >= len(self.tasks):
            return self.tasks
        end = len(self.tasks) - cooldown if cooldown else len(self.tasks)
        return self.tasks[warmup:end]

    # ------------------------------------------------------------------
    # Robustness (Figures 4, 5, 7, 9)
    # ------------------------------------------------------------------
    def completed_on_time(self, *, warmup: int = 0, cooldown: int = 0) -> int:
        return sum(1 for t in self.evaluated_tasks(warmup=warmup, cooldown=cooldown) if t.on_time)

    def robustness_percent(self, *, warmup: int = 0, cooldown: int = 0) -> float:
        """Percentage of evaluated tasks completing on or before their deadline."""
        tasks = self.evaluated_tasks(warmup=warmup, cooldown=cooldown)
        if not tasks:
            return 0.0
        return 100.0 * sum(1 for t in tasks if t.on_time) / len(tasks)

    # ------------------------------------------------------------------
    # Fairness (Figure 6)
    # ------------------------------------------------------------------
    def per_type_completion_percent(
        self, *, warmup: int = 0, cooldown: int = 0
    ) -> np.ndarray:
        """On-time completion percentage of each task type.

        Types with no evaluated task are reported as ``nan`` so they do not
        distort the fairness variance.
        """
        tasks = self.evaluated_tasks(warmup=warmup, cooldown=cooldown)
        totals = np.zeros(self.num_task_types, dtype=np.float64)
        on_time = np.zeros(self.num_task_types, dtype=np.float64)
        for task in tasks:
            totals[task.task_type] += 1
            if task.on_time:
                on_time[task.task_type] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            percents = np.where(totals > 0, 100.0 * on_time / totals, np.nan)
        return percents

    def fairness_variance(self, *, warmup: int = 0, cooldown: int = 0) -> float:
        """Variance of per-type completion percentages (lower = fairer)."""
        percents = self.per_type_completion_percent(warmup=warmup, cooldown=cooldown)
        valid = percents[~np.isnan(percents)]
        if valid.size == 0:
            return 0.0
        return float(np.var(valid))

    # ------------------------------------------------------------------
    # Cost (Figure 8)
    # ------------------------------------------------------------------
    def total_cost(self) -> float:
        return total_cost(self.machine_busy_times, self.machine_prices)

    def cost_per_percent_on_time(self, *, warmup: int = 0, cooldown: int = 0) -> float:
        return cost_per_percent_robustness(
            self.total_cost(), self.robustness_percent(warmup=warmup, cooldown=cooldown)
        )

    # ------------------------------------------------------------------
    # Breakdown helpers
    # ------------------------------------------------------------------
    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for task in self.tasks:
            if task.status is TaskStatus.COMPLETED:
                key = "completed-on-time" if task.on_time else "completed-late"
            elif task.status is TaskStatus.DROPPED:
                reason = task.drop_reason or DropReason.DEADLINE_MISS_UNMAPPED
                key = reason.value
            else:  # pragma: no cover - defensive; runs always terminate tasks
                key = task.status.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def summary(self, *, warmup: int = 0, cooldown: int = 0) -> dict[str, float]:
        """Flat dictionary of the headline metrics for reports."""
        return {
            "tasks": float(len(self.tasks)),
            "robustness_percent": self.robustness_percent(warmup=warmup, cooldown=cooldown),
            "fairness_variance": self.fairness_variance(warmup=warmup, cooldown=cooldown),
            "total_cost": self.total_cost(),
            "cost_per_percent_on_time": self.cost_per_percent_on_time(
                warmup=warmup, cooldown=cooldown
            ),
            "end_time": float(self.end_time),
            **{k: float(v) for k, v in self.counters.as_dict().items()},
        }

