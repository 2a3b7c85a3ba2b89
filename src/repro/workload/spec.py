"""Task specifications produced by the workload generator.

A :class:`TaskSpec` is the immutable description of one arriving task: its
type, arrival time and hard deadline.  The simulator wraps each spec in a
mutable runtime :class:`repro.simulator.task.Task`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TaskSpec"]


@dataclass(frozen=True, order=True, slots=True)
class TaskSpec:
    """One arriving task, as generated offline by the workload model."""

    #: Arrival time in integer time units (sort key — traces are time ordered).
    arrival: int
    #: Unique, monotonically increasing task identifier.
    task_id: int
    #: Index of the task type in the PET matrix.
    task_type: int
    #: Hard deadline; a task finishing after this instant has no value.
    deadline: int

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival time must be non-negative")
        if self.deadline <= self.arrival:
            raise ValueError("deadline must be strictly after arrival")
        if self.task_type < 0:
            raise ValueError("task type index must be non-negative")

    @property
    def slack(self) -> int:
        """Time between arrival and deadline."""
        return self.deadline - self.arrival
