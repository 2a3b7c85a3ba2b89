"""Machines and their bounded FCFS local queues (paper Section III).

Each machine has a limited-size local queue (six slots in the paper,
*counting the executing task*) processed first-come-first-serve.  Once a
task is mapped to a machine it cannot be remapped (data-transfer overhead),
but it can be dropped by the pruning mechanism or when its deadline passes.

The machine also exposes the probabilistic queue state the mapper needs: the
chain of completion-time PMFs down its queue (Section IV) and its final
availability PMF, built from the PET matrix.  This per-machine snapshot path
is the *reference* implementation: the engine itself serves availability
from the incrementally maintained
:class:`~repro.simulator.state.SystemState`, which runs the same chain steps
but caches them across mapping events (bit-identical by construction).  For
standalone callers that want several machines' availability PMFs in batched
form (the shape the scoring kernels of :mod:`repro.core.batch` consume —
e.g. analysis tools or custom heuristics), :func:`batched_availability`
stacks them onto one aligned :class:`~repro.core.batch.PMFBatch` grid.  Note
the in-tree two-phase heuristics score their *virtual* (post-drop,
post-commit) availabilities instead — see ``ScoreTable.fill``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from ..core.batch import PMFBatch
from ..core.completion import DroppingPolicy, chain_step
from ..core.pmf import DiscretePMF
from ..pet.matrix import PETMatrix
from .task import Task

__all__ = ["Machine", "MachineQueueSnapshot", "batched_availability"]


@dataclass(frozen=True)
class MachineQueueSnapshot:
    """Read-only probabilistic view of one machine queue at a mapping event.

    Attributes
    ----------
    tasks:
        Queued tasks, executing task first (if any).
    completion_pmfs:
        ``completion_pmfs[k]`` is the availability PMF of the machine after
        ``tasks[k]`` (Eqs. 2-5 applied down the queue).
    availability:
        Availability PMF of the machine after its whole current queue — the
        PMF a newly mapped task's PET must be convolved with.
    """

    tasks: tuple[Task, ...]
    completion_pmfs: tuple[DiscretePMF, ...]
    availability: DiscretePMF


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
        #: Monotonic counter bumped on every queue mutation; used to cache
        #: the probabilistic queue snapshot across mapping events.
        self.queue_version: int = 0
        self._snapshot_cache: tuple[tuple, MachineQueueSnapshot] | None = None

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
        self.busy_time += max(0, now - (task.exec_start or now))
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
    def executing_completion_pmf(
        self, pet: PETMatrix, now: int, *, condition_on_now: bool = False
    ) -> DiscretePMF:
        """Completion-time PMF of the executing task.

        The paper anchors the executing task's PCT at its observed start time
        (its PET shifted by the start time, Section IV); that is the default.
        With ``condition_on_now`` the PMF is additionally conditioned on the
        task not having finished by ``now`` — slightly more informative but
        it changes at every mapping event, which defeats snapshot caching.
        If the conditional mass is empty (the task is running longer than any
        historical sample) the machine is assumed to free up at the next
        time unit.
        """
        task = self.executing
        if task is None:
            return DiscretePMF.point(now)
        start = now if task.exec_start is None else task.exec_start
        pmf = pet.get(task.task_type, self.index).shift(start)
        if not condition_on_now:
            return pmf
        remaining = pmf.truncate_from(now + 1)
        if remaining.is_zero():
            return DiscretePMF.point(now + 1)
        return remaining.normalise()

    def executing_anchor_pmf(
        self,
        pet: PETMatrix,
        now: int,
        *,
        policy: DroppingPolicy = DroppingPolicy.EVICT,
        condition_on_now: bool = False,
    ) -> DiscretePMF:
        """THE chain base for an executing head task.

        The executing task's completion PMF, with its tail collapsed onto
        ``max(deadline, now + 1)`` under an evict-capable policy (the task
        is guaranteed to leave the machine by then).  Every
        availability-chain walk — :meth:`queue_snapshot`, the incremental
        :class:`~repro.simulator.state.SystemState`, and the pruning-path
        ``availability_excluding`` fallback — anchors through this single
        helper so the paths stay bit-identical by construction (the queued
        steps behind it go through
        :func:`~repro.core.completion.chain_step`).
        """
        if self.executing is None:
            raise RuntimeError(f"machine {self.name} has no executing task to anchor")
        prev = self.executing_completion_pmf(pet, now, condition_on_now=condition_on_now)
        if policy is DroppingPolicy.EVICT:
            prev = prev.collapse_tail_to(max(self.executing.deadline, now + 1))
        return prev

    def queue_snapshot(
        self,
        pet: PETMatrix,
        now: int,
        *,
        policy: DroppingPolicy = DroppingPolicy.EVICT,
        max_impulses: int | None = 32,
        condition_on_now: bool = False,
    ) -> MachineQueueSnapshot:
        """Completion-time chain for the whole local queue (Section IV).

        When the executing task is anchored at its start time (the default),
        the chain only depends on the queue contents, so it is cached and
        reused across mapping events until the queue changes.
        """
        tasks = self.queued_tasks()
        if not tasks:
            return MachineQueueSnapshot((), (), DiscretePMF.point(now))
        cache_key: tuple | None = None
        if not condition_on_now:
            # The anchor's evict collapse point is constant (the deadline)
            # until the executing task outlives it; past the deadline it
            # tracks ``now``, so it must be part of the key.
            anchor_cut = (
                max(self.executing.deadline, now + 1)
                if self.executing is not None and policy is DroppingPolicy.EVICT
                else None
            )
            cache_key = (self.queue_version, policy, max_impulses, anchor_cut)
            if self._snapshot_cache is not None and self._snapshot_cache[0] == cache_key:
                return self._snapshot_cache[1]

        pmfs: list[DiscretePMF] = []
        if self.executing is not None:
            prev = self.executing_anchor_pmf(
                pet, now, policy=policy, condition_on_now=condition_on_now
            )
            pmfs.append(prev)
            start_index = 1
        else:
            prev = DiscretePMF.point(now)
            start_index = 0
        for task in tasks[start_index:]:
            pet_entry = pet.get(task.task_type, self.index)
            prev = chain_step(pet_entry, prev, task.deadline, policy, max_impulses)
            pmfs.append(prev)
        snapshot = MachineQueueSnapshot(tuple(tasks), tuple(pmfs), prev)
        if cache_key is not None:
            self._snapshot_cache = (cache_key, snapshot)
        return snapshot

    def availability_pmf(
        self,
        pet: PETMatrix,
        now: int,
        *,
        policy: DroppingPolicy = DroppingPolicy.EVICT,
        max_impulses: int | None = 32,
        condition_on_now: bool = False,
    ) -> DiscretePMF:
        """Availability PMF after the machine's current local queue."""
        return self.queue_snapshot(
            pet,
            now,
            policy=policy,
            max_impulses=max_impulses,
            condition_on_now=condition_on_now,
        ).availability

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(index={self.index}, name={self.name!r}, "
            f"occupied={self.occupied_slots}/{self.queue_capacity})"
        )


def batched_availability(
    machines: Iterable[Machine],
    pet: PETMatrix,
    now: int,
    *,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    max_impulses: int | None = 32,
    condition_on_now: bool = False,
) -> PMFBatch:
    """Availability PMFs of several machines on one aligned batch grid.

    Parameters
    ----------
    machines:
        Machines whose current local queues should be chained; batch row
        ``i`` corresponds to the ``i``-th machine yielded.
    pet, now, policy, max_impulses, condition_on_now:
        Forwarded to :meth:`Machine.availability_pmf` (per-machine snapshot
        caching applies as usual).

    Returns
    -------
    PMFBatch
        ``(n_machines, support)`` batch ready for the scoring kernels in
        :mod:`repro.core.batch`; row values are bit-identical to the scalar
        per-machine availability PMFs.
    """
    return PMFBatch.from_pmfs(
        [
            machine.availability_pmf(
                pet,
                now,
                policy=policy,
                max_impulses=max_impulses,
                condition_on_now=condition_on_now,
            )
            for machine in machines
        ]
    )
