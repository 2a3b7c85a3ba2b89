"""Interface between the simulation engine and mapping heuristics.

At every *mapping event* the engine builds a :class:`MappingContext` — a
read-only view of the system state (batch queue, machine queues, PET matrix,
deadline misses observed since the last event, and the live
:class:`~repro.simulator.state.SystemState` every availability read goes
through) — and hands it to the active heuristic.  The heuristic returns a :class:`MappingDecision` listing the
tasks it wants to assign, defer, or proactively drop; the engine validates
and applies the decision.  Keeping the heuristics side-effect free makes them
unit-testable without running a full simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.completion import DroppingPolicy, completion_step
from ..core.pmf import DiscretePMF
from ..pet.matrix import PETMatrix
from .machine import Machine
from .state import SystemState
from .task import Task

__all__ = ["MappingContext", "MappingDecision", "Assignment", "QueueDrop", "TerminalEvent"]


@dataclass(frozen=True)
class Assignment:
    """One task-to-machine assignment chosen by a heuristic."""

    task_id: int
    machine_index: int


@dataclass(frozen=True)
class QueueDrop:
    """A proactive drop of a task already sitting in a machine queue."""

    task_id: int
    machine_index: int


@dataclass(frozen=True)
class TerminalEvent:
    """A task that reached a terminal state since the previous mapping event.

    The fairness tracker of PAMF consumes these to update per-type sufferage
    values ("updating the sufferage value occurs upon completion of a task").
    """

    task_id: int
    task_type: int
    #: True when the task completed at or before its deadline.
    on_time: bool


@dataclass
class MappingContext:
    """Read-only snapshot of the system at a mapping event."""

    #: Current simulation time.
    now: int
    #: Unmapped tasks in the batch queue (arrival order).
    batch: tuple[Task, ...]
    #: All machines with their current local queues.
    machines: tuple[Machine, ...]
    #: The PET matrix available to the resource-allocation system.
    pet: PETMatrix
    #: Dropping regime the running system actually implements; heuristics use
    #: the matching completion-time math (Section IV).
    policy: DroppingPolicy = DroppingPolicy.EVICT
    #: Number of tasks whose deadlines passed since the previous mapping
    #: event (the oversubscription signal mu_tau of Eq. 8).
    misses_since_last_event: int = 0
    #: Tasks that reached a terminal state since the previous mapping event.
    terminal_events: tuple[TerminalEvent, ...] = ()
    #: Impulse-aggregation cap for completion-time chains (None = exact).
    max_impulses: int | None = 32
    #: Live availability state, the one walker of every machine's chain.
    #: The engine passes its own; a context built without one (by hand, in
    #: tests or analysis code) builds a fresh state on its own settings.
    #: The availability accessors below are views over its chains.
    state: SystemState | None = None

    def __post_init__(self) -> None:
        settings = {"policy": self.policy, "max_impulses": self.max_impulses}
        if self.state is None:
            self.state = SystemState(self.machines, self.pet, **settings)
            return
        state = self.state
        mismatched = [name for name, value in settings.items() if getattr(state, name) != value]
        if state.pet is not self.pet:
            mismatched.append("pet")
        if state.machines != list(self.machines):  # ``Machine`` equality is identity
            mismatched.append("machines")
        if mismatched:
            raise ValueError(f"state settings disagree with the context: {mismatched}")

    # ------------------------------------------------------------------
    def machine_availability(self, machine_index: int) -> DiscretePMF:
        """Availability PMF of a machine's *current* queue (live view)."""
        return self.state.availability(machine_index, self.now)

    def extend_availability(
        self, machine_index: int, task: Task, prev: DiscretePMF
    ) -> DiscretePMF:
        """Availability of a machine once ``task`` is queued behind ``prev``.

        One chain step on the context's settings, which are the state's.
        The step is also handed to the state, by-products and all
        (:meth:`SystemState.offer_step`): if the engine then enqueues
        ``task`` there, behind that ``prev``, the state adopts the step
        instead of computing it a second time.
        """
        step = completion_step(
            self.pet.get(task.task_type, machine_index),
            prev,
            task.deadline,
            self.policy,
            self.max_impulses,
        )
        self.state.offer_step(machine_index, task, prev, step)
        return step.availability


@dataclass
class MappingDecision:
    """What a heuristic wants the engine to do at one mapping event."""

    #: Ordered task-to-machine assignments from the batch queue.
    assignments: list[Assignment] = field(default_factory=list)
    #: Proactive drops of tasks already in machine queues (pruning).
    queue_drops: list[QueueDrop] = field(default_factory=list)
    #: Batch tasks explicitly deferred by the pruner (kept unmapped).  Purely
    #: informational — the engine leaves unassigned batch tasks in place
    #: either way — but recorded for the deferral statistics.
    deferrals: list[int] = field(default_factory=list)

    def assign(self, task: Task | int, machine: Machine | int) -> None:
        task_id = task if isinstance(task, int) else task.task_id
        machine_index = machine if isinstance(machine, int) else machine.index
        self.assignments.append(Assignment(task_id, machine_index))

    def validate(self, context: MappingContext) -> None:
        """Sanity-check the decision against the context it was made for."""
        batch_ids = {t.task_id for t in context.batch} if self.assignments else set()
        seen: set[int] = set()
        for assignment in self.assignments:
            if assignment.task_id not in batch_ids:
                raise ValueError(
                    f"assignment references task {assignment.task_id} not in the batch queue"
                )
            if assignment.task_id in seen:
                raise ValueError(f"task {assignment.task_id} assigned more than once")
            if not 0 <= assignment.machine_index < len(context.machines):
                raise ValueError(
                    f"assignment references unknown machine {assignment.machine_index}"
                )
            seen.add(assignment.task_id)
        queued: dict[int, set[int]] = {}
        for drop in self.queue_drops:
            if not 0 <= drop.machine_index < len(context.machines):
                raise ValueError(f"queue drop references unknown machine {drop.machine_index}")
            if drop.machine_index not in queued:
                machine = context.machines[drop.machine_index]
                queued[drop.machine_index] = {t.task_id for t in machine.queued_tasks()}
            if drop.task_id not in queued[drop.machine_index]:
                raise ValueError(
                    f"queue drop references task {drop.task_id} not queued on machine "
                    f"{drop.machine_index}"
                )
