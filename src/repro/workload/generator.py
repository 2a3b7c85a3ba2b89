"""Workload trace generation (paper Section VI-B).

A *workload trace* is a time-ordered list of :class:`TaskSpec` covering one
simulation trial.  Oversubscription is controlled by the total number of
tasks arriving within a fixed time span: more tasks in the same span means a
higher arrival rate on the same eight machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..pet.matrix import PETMatrix
from ..utils.rng import make_generator
from .arrivals import generate_arrival_times
from .deadlines import DeadlineModel
from .spec import TaskSpec

__all__ = ["WorkloadConfig", "WorkloadTrace", "generate_workload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one workload trial.

    Attributes
    ----------
    num_tasks:
        Total number of tasks arriving over the trace (the paper's
        oversubscription knob).
    time_span:
        Length of the arrival window in time units.
    beta:
        Deadline slack coefficient (Section VI-B).
    variance_fraction:
        Variance of the gamma inter-arrival distribution as a fraction of its
        mean (0.1 in the paper except for the arrival-variance study).
    """

    num_tasks: int
    time_span: int
    beta: float = 2.0
    variance_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        if self.time_span <= 0:
            raise ValueError("time_span must be positive")
        for name in ("beta", "variance_fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.variance_fraction <= 0:
            raise ValueError("variance_fraction must be positive")


@dataclass(frozen=True)
class WorkloadTrace:
    """An immutable, time-ordered sequence of task specifications."""

    tasks: tuple[TaskSpec, ...]
    config: WorkloadConfig
    num_task_types: int = field(default=0)

    def __post_init__(self) -> None:
        tasks = tuple(self.tasks)
        if any(tasks[i].arrival > tasks[i + 1].arrival for i in range(len(tasks) - 1)):
            raise ValueError("workload trace must be sorted by arrival time")
        object.__setattr__(self, "tasks", tasks)
        if self.num_task_types == 0 and tasks:
            object.__setattr__(
                self, "num_task_types", max(t.task_type for t in tasks) + 1
            )

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> TaskSpec:
        return self.tasks[index]

    def type_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_task_types, dtype=np.int64)
        for task in self.tasks:
            counts[task.task_type] += 1
        return counts

    def offered_load(self, pet: PETMatrix, num_machines: int | None = None) -> float:
        """Ratio of offered work to system capacity over the arrival window.

        Values above one mean the system is oversubscribed on average.
        """
        machines = pet.num_machines if num_machines is None else num_machines
        mean_exec = np.array([pet.task_type_mean(t.task_type) for t in self.tasks])
        demand = float(mean_exec.sum())
        capacity = machines * self.config.time_span
        return demand / capacity


def generate_workload(
    config: WorkloadConfig,
    pet: PETMatrix,
    *,
    rng: np.random.Generator | int | None = None,
    task_types: Sequence[int] | None = None,
) -> WorkloadTrace:
    """Generate one workload trial following Section VI-B.

    Parameters
    ----------
    config:
        Trial parameters (task count, span, slack, arrival variance).
    pet:
        PET matrix — supplies the per-type and overall mean execution times
        used for deadline assignment, and the number of task types.
    rng:
        Seed or Generator for reproducible traces.
    task_types:
        Optional subset of PET task-type indices to draw from (defaults to
        all types in the PET matrix).
    """
    rng = make_generator(rng)
    type_indices = list(range(pet.num_task_types)) if task_types is None else list(task_types)
    if not type_indices:
        raise ValueError("at least one task type is required")
    for t in type_indices:
        if not 0 <= t < pet.num_task_types:
            raise IndexError(f"task type index {t} not present in the PET matrix")

    arrivals = generate_arrival_times(
        config.num_tasks,
        config.time_span,
        len(type_indices),
        rng=rng,
        variance_fraction=config.variance_fraction,
    )
    deadline_model = DeadlineModel(pet, beta=config.beta)
    specs = []
    for task_id, (arrival, local_type) in enumerate(arrivals):
        task_type = type_indices[local_type]
        specs.append(
            TaskSpec(
                arrival=arrival,
                task_id=task_id,
                task_type=task_type,
                deadline=deadline_model(arrival, task_type),
            )
        )
    specs.sort()
    return WorkloadTrace(tuple(specs), config, num_task_types=pet.num_task_types)
