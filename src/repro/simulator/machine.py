"""Machines and their bounded FCFS local queues (paper Section III).

Each machine has a limited-size local queue (six slots in the paper,
*counting the executing task*) processed first-come-first-serve.  Once a
task is mapped to a machine it cannot be remapped (data-transfer overhead),
but it can be dropped by the pruning mechanism or when its deadline passes.

A machine only holds its queue.  The probabilistic queue state the mapper
needs — the chain of completion-time PMFs down the queue (Section IV) and
the availability PMF behind it — is walked by
:class:`~repro.simulator.state.SystemState`, anchored on
:meth:`Machine.executing_anchor_pmf`.
"""

from __future__ import annotations

from collections import deque

from ..core.completion import DroppingPolicy
from ..core.pmf import DiscretePMF
from ..pet.matrix import PETMatrix
from .task import Task

__all__ = ["Machine"]


class Machine:
    """One heterogeneous machine with a bounded FCFS queue."""

    def __init__(
        self,
        index: int,
        name: str,
        *,
        queue_capacity: int = 6,
        price_per_time: float = 1.0,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue capacity must be at least one")
        if price_per_time < 0:
            raise ValueError("price must be non-negative")
        self.index = int(index)
        self.name = str(name)
        self.queue_capacity = int(queue_capacity)
        self.price_per_time = float(price_per_time)
        #: Task currently executing, if any.
        self.executing: Task | None = None
        #: Mapped tasks waiting behind the executing one (FCFS order).
        self.pending: deque[Task] = deque()
        #: Accumulated busy time (used by the cost model).
        self.busy_time: int = 0
        #: Monotonic counter bumped on every queue mutation; lets
        #: :class:`~repro.simulator.state.SystemState` detect a mutation it
        #: was not notified of.
        self.queue_version: int = 0

    # ------------------------------------------------------------------
    # Queue occupancy
    # ------------------------------------------------------------------
    @property
    def occupied_slots(self) -> int:
        """Number of queue slots in use, counting the executing task."""
        return (1 if self.executing is not None else 0) + len(self.pending)

    @property
    def free_slots(self) -> int:
        return self.queue_capacity - self.occupied_slots

    @property
    def is_idle(self) -> bool:
        return self.executing is None

    @property
    def has_free_slot(self) -> bool:
        return self.free_slots > 0

    def queued_tasks(self) -> list[Task]:
        """All tasks on the machine, executing task first."""
        tasks = [] if self.executing is None else [self.executing]
        tasks.extend(self.pending)
        return tasks

    # ------------------------------------------------------------------
    # Queue mutation (driven by the simulation engine)
    # ------------------------------------------------------------------
    def enqueue(self, task: Task, now: int) -> None:
        """Append a task to the local queue (mapping decision applied)."""
        if not self.has_free_slot:
            raise RuntimeError(f"machine {self.name} queue is full")
        task.mark_mapped(self.index, now)
        self.pending.append(task)
        self.queue_version += 1

    def start_next(self, now: int, actual_execution_time: int) -> Task:
        """Begin executing the head of the pending queue."""
        if self.executing is not None:
            raise RuntimeError(f"machine {self.name} is already executing a task")
        if not self.pending:
            raise RuntimeError(f"machine {self.name} has no pending tasks")
        task = self.pending.popleft()
        task.mark_executing(now, actual_execution_time)
        self.executing = task
        self.queue_version += 1
        return task

    def finish_executing(self, task: Task, now: int) -> None:
        """Release the executing slot after completion or eviction."""
        if self.executing is not task:
            raise RuntimeError(
                f"task {task.task_id} is not executing on machine {self.name}"
            )
        if task.exec_start is not None:
            self.busy_time += max(0, now - task.exec_start)
        self.executing = None
        self.queue_version += 1

    def remove_pending(self, task: Task) -> None:
        """Remove a not-yet-executing task from the local queue."""
        try:
            self.pending.remove(task)
        except ValueError as exc:
            raise RuntimeError(
                f"task {task.task_id} is not pending on machine {self.name}"
            ) from exc
        self.queue_version += 1

    # ------------------------------------------------------------------
    # Probabilistic queue state (used by mapping heuristics)
    # ------------------------------------------------------------------
    def executing_completion_pmf(self, pet: PETMatrix, now: int) -> DiscretePMF:
        """Completion-time PMF of the executing task.

        The paper anchors the executing task's PCT at its observed start time
        (its PET shifted by the start time, Section IV), so it does not
        depend on ``now`` once the task has started.
        """
        task = self.executing
        if task is None:
            return DiscretePMF.point(now)
        start = now if task.exec_start is None else task.exec_start
        return pet.get(task.task_type, self.index).shift(start)

    def executing_anchor_pmf(
        self,
        pet: PETMatrix,
        now: int,
        *,
        policy: DroppingPolicy = DroppingPolicy.EVICT,
    ) -> DiscretePMF:
        """THE chain base for an executing head task.

        The executing task's completion PMF, with its tail collapsed onto
        ``max(deadline, now + 1)`` under an evict-capable policy (the task
        is guaranteed to leave the machine by then).  The incremental
        :class:`~repro.simulator.state.SystemState` anchors its chains
        here, and the test suite's from-scratch reference walk does too, so
        the two agree bit for bit (the queued steps behind it go through
        :func:`~repro.core.completion.completion_step`).

        For a task started at ``now`` with ``deadline > now`` this has the values of the uncapped
        :func:`~repro.core.completion.completion_step` of its PET entry from
        ``point(now)``: the state walks an idle machine's pending head that
        way, and keeps that chain when the head then starts at that instant.
        """
        if self.executing is None:
            raise RuntimeError(f"machine {self.name} has no executing task to anchor")
        prev = self.executing_completion_pmf(pet, now)
        if policy is DroppingPolicy.EVICT:
            prev = prev.collapse_tail_to(max(self.executing.deadline, now + 1))
        return prev

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(index={self.index}, name={self.name!r}, "
            f"occupied={self.occupied_slots}/{self.queue_capacity})"
        )
