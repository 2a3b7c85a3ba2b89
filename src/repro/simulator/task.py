"""Runtime task state inside the HC simulator.

A :class:`Task` wraps an immutable :class:`~repro.workload.spec.TaskSpec`
with the mutable state the simulator needs: where the task currently lives
(batch queue, machine queue, executing), when it started/finished, and why it
left the system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..workload.spec import TaskSpec

__all__ = ["Task", "TaskView", "TaskStatus", "DropReason"]


class TaskStatus(enum.Enum):
    """Lifecycle of a task in the simulator."""

    #: In the batch (unmapped) queue, waiting for a mapping event.
    PENDING = "pending"
    #: Mapped to a machine queue, not yet executing.
    QUEUED = "queued"
    #: Currently executing on its mapped machine.
    EXECUTING = "executing"
    #: Finished executing (check :attr:`Task.on_time` for success).
    COMPLETED = "completed"
    #: Removed from the system without finishing.
    DROPPED = "dropped"


class DropReason(enum.Enum):
    """Why a dropped task was removed from the system."""

    #: Deadline passed while the task was still in the batch queue.
    DEADLINE_MISS_UNMAPPED = "deadline-miss-unmapped"
    #: Deadline passed while the task was waiting in a machine queue.
    DEADLINE_MISS_QUEUED = "deadline-miss-queued"
    #: Deadline passed while the task was executing (eviction).
    DEADLINE_MISS_EXECUTING = "deadline-miss-executing"
    #: Proactively dropped by the pruning mechanism (probability too low).
    PRUNED = "pruned"


class TaskView:
    """Outcome properties shared by a live :class:`Task` and its terminal record."""

    __slots__ = ()

    @property
    def is_terminal(self) -> bool:
        """True once the task can no longer change state."""
        return self.status in (TaskStatus.COMPLETED, TaskStatus.DROPPED)

    @property
    def on_time(self) -> bool:
        """True when the task completed at or before its deadline."""
        return (
            self.status is TaskStatus.COMPLETED
            and self.exec_end is not None
            and self.exec_end <= self.deadline
        )

    @property
    def busy_time(self) -> int:
        """Machine time consumed by this task (0 if it never started)."""
        if self.exec_start is None:
            return 0
        end = self.exec_end if self.exec_end is not None else self.exec_start
        return max(0, end - self.exec_start)


@dataclass(slots=True)
class Task(TaskView):
    """Mutable simulator view of one task."""

    spec: TaskSpec
    status: TaskStatus = TaskStatus.PENDING
    #: Index of the machine the task is (or was) mapped to, if any.
    machine: int | None = None
    #: Simulation time at which the task was mapped to a machine queue.
    mapped_at: int | None = None
    #: Simulation time at which execution started.
    exec_start: int | None = None
    #: Simulation time at which the task left the machine (completion or eviction).
    exec_end: int | None = None
    #: Sampled actual execution time (set when execution starts).
    actual_execution_time: int | None = None
    #: Why the task was dropped, when status is DROPPED.
    drop_reason: DropReason | None = None
    #: Simulation time at which the task was dropped.
    dropped_at: int | None = None

    # ------------------------------------------------------------------
    @property
    def task_id(self) -> int:
        return self.spec.task_id

    @property
    def task_type(self) -> int:
        return self.spec.task_type

    @property
    def arrival(self) -> int:
        return self.spec.arrival

    @property
    def deadline(self) -> int:
        return self.spec.deadline

    # ------------------------------------------------------------------
    def mark_mapped(self, machine: int, now: int) -> None:
        if self.is_terminal:
            raise RuntimeError(f"task {self.task_id} is already terminal")
        self.status = TaskStatus.QUEUED
        self.machine = machine
        self.mapped_at = now

    def mark_executing(self, now: int, actual_execution_time: int) -> None:
        if self.status is not TaskStatus.QUEUED:
            raise RuntimeError(
                f"task {self.task_id} cannot start executing from {self.status}"
            )
        if actual_execution_time < 1:
            raise ValueError("execution time must be at least one time unit")
        self.status = TaskStatus.EXECUTING
        self.exec_start = now
        self.actual_execution_time = actual_execution_time

    def mark_completed(self, now: int) -> None:
        if self.status is not TaskStatus.EXECUTING:
            raise RuntimeError(f"task {self.task_id} cannot complete from {self.status}")
        self.status = TaskStatus.COMPLETED
        self.exec_end = now

    def mark_dropped(self, now: int, reason: DropReason) -> None:
        if self.is_terminal:
            raise RuntimeError(f"task {self.task_id} is already terminal")
        if self.status is TaskStatus.EXECUTING:
            self.exec_end = now
        self.status = TaskStatus.DROPPED
        self.drop_reason = reason
        self.dropped_at = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(id={self.task_id}, type={self.task_type}, arr={self.arrival}, "
            f"dl={self.deadline}, status={self.status.value})"
        )
