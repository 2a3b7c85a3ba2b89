"""Simulation results and the metrics reported in the paper's evaluation.

The primary metric is *robustness*: the percentage of tasks completing on or
before their deadlines (Section VII-A).  Following Section VI-B, a warm-up
and cool-down window of tasks is excluded so that only the oversubscribed
portion of the trial is evaluated.  Secondary metrics cover fairness
(variance of per-type completion percentages, Figure 6) and incurred cost
(Figure 8).

A result keeps each task's terminal outcome as one row of typed columns
(:class:`TaskOutcomes`), not the engine's :class:`~repro.simulator.task.Task`
objects: the engine appends a row to an :class:`OutcomeTable` as each task
turns terminal and then forgets the task.  Each column is only as wide as
its values: the enum codes, task types and machine indices start as int8,
ids and times as int32, and a column is copied into int64 the first time a
value does not fit.  A finished task of the perf ledger's batched run costs
~37 bytes (83 while ten columns were int64), and every metric below is a
vector expression over them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .cost import cost_per_percent_robustness, total_cost
from .task import DropReason, Task, TaskStatus, TaskView

__all__ = [
    "DROP_REASONS",
    "NONE",
    "OutcomeTable",
    "SimulationCounters",
    "SimulationResult",
    "STATUSES",
    "TaskOutcome",
    "TaskOutcomes",
]

#: Enum members by their code in the outcome table (the member's position).
STATUSES = tuple(TaskStatus)
DROP_REASONS = tuple(DropReason)
_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
_REASON_CODE = {reason: code for code, reason in enumerate(DROP_REASONS)}
_COMPLETED = _STATUS_CODE[TaskStatus.COMPLETED]
_DROPPED = _STATUS_CODE[TaskStatus.DROPPED]
#: ``None`` in an outcome column.  No column that can hold ``None`` has a
#: negative value: a TaskSpec rejects negative arrivals, so no time is, and
#: machine indices and enum codes start at 0.
NONE = -1
_UNMAPPED = _REASON_CODE[DropReason.DEADLINE_MISS_UNMAPPED]
#: ``status_counts`` keys by outcome code: completed on time or late, dropped
#: for each reason (no reason counts as unmapped), then any live status.
_OUTCOME_LABELS = (
    "completed-on-time",
    "completed-late",
    *(reason.value for reason in DROP_REASONS),
    *(status.value for status in STATUSES),
)


@dataclass(frozen=True, slots=True)
class TaskOutcome(TaskView):
    """Read-only record of one finished task: one row of a result's table."""

    task_id: int
    task_type: int
    arrival: int
    deadline: int
    status: TaskStatus
    machine: int | None
    mapped_at: int | None
    exec_start: int | None
    exec_end: int | None
    actual_execution_time: int | None
    drop_reason: DropReason | None
    dropped_at: int | None


#: Outcome-table columns, in row order.
OUTCOME_FIELDS = tuple(f.name for f in fields(TaskOutcome))
#: Columns that start as int8; the others start as int32.  Either widens to
#: int64 the first time one of its values does not fit.
_SMALL = ("task_type", "status", "machine", "drop_reason")
#: Columns that are never ``NONE``.
_ALWAYS_SET = ("task_id", "task_type", "arrival", "deadline", "status")


@dataclass(frozen=True, eq=False)
class TaskOutcomes:
    """Every task's terminal outcome as read-only columns, ``(arrival, task_id)`` order.

    A column is int8, int32 or int64, whichever its values needed (see
    :class:`OutcomeTable`), so upcast it before arithmetic that could leave
    that range.
    """

    task_id: np.ndarray
    task_type: np.ndarray
    arrival: np.ndarray
    deadline: np.ndarray
    #: Code of the task's :class:`TaskStatus` (its index in ``STATUSES``).
    status: np.ndarray
    machine: np.ndarray
    mapped_at: np.ndarray
    exec_start: np.ndarray
    exec_end: np.ndarray
    actual_execution_time: np.ndarray
    #: Code of the :class:`DropReason` (index in ``DROP_REASONS``), or ``NONE``.
    drop_reason: np.ndarray
    dropped_at: np.ndarray

    @classmethod
    def of(cls, tasks: Iterable[Task]) -> "TaskOutcomes":
        """The table of ``tasks``, each already in its terminal state."""
        table = OutcomeTable()
        for task in tasks:
            table.append(task)
        return table.freeze()

    def __len__(self) -> int:
        return len(self.task_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskOutcomes):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in OUTCOME_FIELDS
        )

    @property
    def on_time(self) -> np.ndarray:
        """Per row: completed at or before its deadline."""
        return (
            (self.status == _COMPLETED)
            & (self.exec_end != NONE)
            & (self.exec_end <= self.deadline)
        )

    def values(self, name: str) -> list:
        """Column ``name`` as Python values: ``None`` and enum members decoded."""
        raw = getattr(self, name).tolist()
        if name == "status":
            return [STATUSES[code] for code in raw]
        if name == "drop_reason":
            return [None if code == NONE else DROP_REASONS[code] for code in raw]
        if name in _ALWAYS_SET:
            return raw
        return [None if value == NONE else value for value in raw]

    def records(self) -> tuple[TaskOutcome, ...]:
        """Every row as a :class:`TaskOutcome` record, built now."""
        columns = [self.values(name) for name in OUTCOME_FIELDS]
        return tuple(TaskOutcome(*row) for row in zip(*columns))


class OutcomeTable:
    """Growable typed columns with one row per task, appended as it turns terminal.

    The columns in ``_SMALL`` start as int8 and the others as int32; the
    first value that does not fit copies its column into int64, so every
    value stays exact and only that column pays for it.
    """

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        self._columns = [array("b" if name in _SMALL else "i") for name in OUTCOME_FIELDS]

    def append(self, task: Task) -> None:
        row = (
            task.task_id,
            task.task_type,
            task.arrival,
            task.deadline,
            _STATUS_CODE[task.status],
            NONE if task.machine is None else task.machine,
            NONE if task.mapped_at is None else task.mapped_at,
            NONE if task.exec_start is None else task.exec_start,
            NONE if task.exec_end is None else task.exec_end,
            NONE if task.actual_execution_time is None else task.actual_execution_time,
            NONE if task.drop_reason is None else _REASON_CODE[task.drop_reason],
            NONE if task.dropped_at is None else task.dropped_at,
        )
        columns = self._columns
        for index, value in enumerate(row):
            try:
                columns[index].append(value)
            except OverflowError:
                columns[index] = array("q", columns[index])
                columns[index].append(value)

    def freeze(self) -> TaskOutcomes:
        """The rows as NumPy columns in ``(arrival, task_id)`` order."""
        columns = dict(zip(OUTCOME_FIELDS, map(np.asarray, self._columns)))
        order = np.lexsort((columns["task_id"], columns["arrival"]))
        for name, column in columns.items():
            columns[name] = column = column[order]
            column.flags.writeable = False
        return TaskOutcomes(**columns)


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

    #: Every task's terminal outcome, in arrival order.
    outcomes: TaskOutcomes
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

    @property
    def tasks(self) -> tuple[TaskOutcome, ...]:
        """All tasks in arrival order, as records built anew on every read."""
        return self.outcomes.records()

    @property
    def num_tasks(self) -> int:
        return len(self.outcomes)

    # ------------------------------------------------------------------
    # Task selection
    # ------------------------------------------------------------------
    def _window(self, warmup: int, cooldown: int) -> slice:
        """Rows kept for analysis after trimming warm-up / cool-down windows.

        The paper removes the first and last hundred tasks of each trial so
        only the oversubscribed portion is measured; trimming is by arrival
        order.  If trimming would remove everything, every row is kept so
        metrics stay well defined on tiny smoke-test runs.
        """
        if warmup < 0 or cooldown < 0:
            raise ValueError("warmup and cooldown must be non-negative")
        if warmup + cooldown >= self.num_tasks:
            return slice(None)
        return slice(warmup, self.num_tasks - cooldown)

    # ------------------------------------------------------------------
    # Robustness (Figures 4, 5, 7, 9)
    # ------------------------------------------------------------------
    def completed_on_time(self, *, warmup: int = 0, cooldown: int = 0) -> int:
        return int(np.count_nonzero(self.outcomes.on_time[self._window(warmup, cooldown)]))

    def robustness_percent(self, *, warmup: int = 0, cooldown: int = 0) -> float:
        """Percentage of evaluated tasks completing on or before their deadline."""
        on_time = self.outcomes.on_time[self._window(warmup, cooldown)]
        if not on_time.size:
            return 0.0
        return 100.0 * int(np.count_nonzero(on_time)) / on_time.size

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
        window = self._window(warmup, cooldown)
        types = self.outcomes.task_type[window]
        on_time_types = types[self.outcomes.on_time[window]]
        totals = np.bincount(types, minlength=self.num_task_types).astype(np.float64)
        on_time = np.bincount(on_time_types, minlength=self.num_task_types).astype(np.float64)
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
        """Tasks per terminal outcome, keyed in order of first arrival."""
        o = self.outcomes
        reason = np.where(o.drop_reason == NONE, _UNMAPPED, o.drop_reason)
        key = np.where(
            o.status == _COMPLETED,
            np.where(o.on_time, 0, 1),
            np.where(o.status == _DROPPED, 2 + reason, 2 + len(DROP_REASONS) + o.status),
        )
        keys, first, counts = np.unique(key, return_index=True, return_counts=True)
        return {
            _OUTCOME_LABELS[k]: count
            for _, k, count in sorted(zip(first.tolist(), keys.tolist(), counts.tolist()))
        }

    def summary(self, *, warmup: int = 0, cooldown: int = 0) -> dict[str, float]:
        """Flat dictionary of the headline metrics for reports."""
        return {
            "tasks": float(self.num_tasks),
            "robustness_percent": self.robustness_percent(warmup=warmup, cooldown=cooldown),
            "fairness_variance": self.fairness_variance(warmup=warmup, cooldown=cooldown),
            "total_cost": self.total_cost(),
            "cost_per_percent_on_time": self.cost_per_percent_on_time(
                warmup=warmup, cooldown=cooldown
            ),
            "end_time": float(self.end_time),
            **{k: float(v) for k, v in self.counters.as_dict().items()},
        }

