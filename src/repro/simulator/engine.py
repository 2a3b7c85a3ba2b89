"""Event-driven simulator of the oversubscribed HC system (paper Section III).

The engine drives a workload trace through the system model of the paper:

* tasks arrive dynamically into a batch queue of unmapped tasks,
* a *mapping event* fires whenever the scheduling policy is due (see the
  two scheduling modes below); before each engine step, tasks whose
  deadlines have already passed are removed from the system,
* the active mapping heuristic examines the batch queue and the machine
  queues and returns assignments (and, for pruning-aware heuristics,
  proactive drops and deferrals),
* machines process their bounded local queues FCFS with no preemption or
  multitasking; actual execution times are sampled from the PET matrix,
* optionally (default, matching the paper's hard-deadline semantics) an
  executing task is evicted the moment its deadline passes.

The engine is deterministic given a seeded ``numpy.random.Generator``.

Everything the engine reacts to lives in one **global event heap**
(:class:`~repro.simulator.events.EventManager`): arrivals, finishes and
scheduling-round markers are typed events popped in ``(time, kind, seq)``
order, following the Firmament-style trace simulators.  Two scheduling
modes share that heap:

* **per-event mapping** (``batch_window=0``, the default and the paper's
  protocol) — a mapping event fires at every event timestamp.  This mode
  is bit-identical (atol=0) to the per-event reference loop over a sorted
  event list in ``tests/reference/loop.py``, which the differential
  property suite pins.
* **batched scheduling rounds** (``batch_window=W > 0``) — mapping events
  fire at most once per ``W`` time units; all tasks arriving within the
  window accumulate in the batch queue and are mapped together against a
  single :class:`~repro.heuristics.base.ScoreTable` fill, amortising
  the batched kernel calls across the round (Firmament's
  ``simulator.cc::ReplaySimulation`` batch mode).  A ``ROUND`` marker in
  the heap bounds round latency when no task event lands at the round
  boundary.  Machines still pull from their local queues and deadline
  drops still happen at every event timestamp — only the *mapping
  decisions* are batched.

The simulator owns a live :class:`~repro.simulator.state.SystemState`: the
machines' availability chains persist across mapping events and every queue
mutation below is paired with a notification that invalidates only the
affected machine's chain suffix.  Mapping events read availability as views
over that state (``MappingContext.machine_availability``) and the
heuristics' ``ScoreTable`` scores every (task, machine) candidate pair
against it in a single batched kernel call.
See ``docs/architecture.md`` for the full event-loop lifecycle.

Tasks enter the engine by one path: :meth:`HCSimulator.begin_stream`, then
per task :meth:`advance_until` its arrival and :meth:`inject_task`, then
:meth:`finish_stream`.  ``advance_until`` processes every event timestamp
strictly before its argument, so an arrival joins the heap only once the
clock has reached its instant, and the engine holds the tasks in flight
rather than the whole trace.  :meth:`HCSimulator.run` is that loop over an
arrival-sorted iterable of specs (the paper's offline protocol), and the
:mod:`repro.serve` admission service makes the same calls one submission
at a time, so a served stream and an offline replay of it decide alike by
construction — in either scheduling mode.

An optional :class:`EngineObserver` receives per-task callbacks (assigned,
terminal) and per-mapping-event callbacks as they happen, which is how the
serving layer streams decisions without touching simulation semantics.
Under batched rounds the assignments of one round surface through
``on_assigned`` in ascending task-id order (a deterministic contract for
consumers), and a task's terminal callback never precedes its assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from time import perf_counter_ns
from typing import Iterable, Protocol, Sequence

import numpy as np

from ..core.completion import DroppingPolicy
from ..obs.telemetry import NULL_TELEMETRY
from ..obs.telemetry import active as obs_active
from ..pet.matrix import PETMatrix
from ..utils.rng import make_generator
from ..workload.spec import TaskSpec
from .cost import default_prices_for
from .events import EventKind, EventManager
from .machine import Machine
from .mapping import (
    MappingContext,
    MappingDecision,
    TerminalEvent,
)
from .metrics import OutcomeTable, SimulationCounters, SimulationResult
from .state import SystemState
from .task import DropReason, Task, TaskStatus

__all__ = [
    "SimulatorConfig",
    "MappingHeuristicProtocol",
    "EngineObserver",
    "HCSimulator",
    "simulate",
]


class MappingHeuristicProtocol(Protocol):
    """Structural interface every mapping heuristic implements."""

    name: str

    def map_tasks(self, context: MappingContext) -> MappingDecision:  # pragma: no cover
        ...

    def reset(self) -> None:  # pragma: no cover
        ...


class EngineObserver(Protocol):
    """Callbacks the engine fires as decisions happen (all optional to act on).

    Pure notifications: observers must not mutate engine state.  The serving
    layer implements this to stream per-task decisions in real time; batch
    replays run with ``observer=None`` and skip the calls entirely.

    Ordering contract: within one mapping event, ``on_assigned`` callbacks
    arrive in decision order in per-event mode and in ascending task-id
    order under batched rounds (``batch_window > 0``); a task's
    ``on_terminal`` callback never precedes its ``on_assigned``.
    """

    def on_assigned(self, task: Task, machine_index: int, now: int) -> None:  # pragma: no cover
        ...

    def on_terminal(self, task: Task) -> None:  # pragma: no cover
        ...

    def on_mapping_event(self, now: int, decision: MappingDecision) -> None:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SimulatorConfig:
    """System-model parameters of the simulated HC system."""

    #: Machine local-queue size, counting the executing task (paper: 6).
    queue_capacity: int = 6
    #: Evict an executing task the instant its deadline passes.  This matches
    #: the hard-deadline semantics ("no value remains in executing the task")
    #: and the evict-capable completion-time model (Section IV, case C).
    evict_executing_at_deadline: bool = True
    #: Impulse-aggregation cap used when propagating completion-time PMFs
    #: (None = exact convolutions; 32 keeps mapping events fast).
    max_impulses: int | None = 32
    #: Batched-scheduling-round window in time units.  ``0`` (default) maps
    #: at every event timestamp — the paper's per-event protocol,
    #: bit-identical to the pre-rework loop.  ``W > 0`` fires mapping
    #: events at most once per ``W`` units: arrivals accumulate across the
    #: round and are scored in one batched ``ScoreTable`` fill, which
    #: amortises kernel calls on large traces at the cost of bounded extra
    #: mapping latency (at most ``W`` time units per task).
    batch_window: int = 0
    #: Accepted for callers that still name the kernels: ``None`` or
    #: ``"numpy"``, which are the same; the kernels are :mod:`repro.core.batch`.
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least one")
        if self.max_impulses is not None and self.max_impulses < 1:
            raise ValueError("max_impulses must be at least one (or None)")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.kernel_backend not in (None, "numpy"):
            raise ValueError(f"kernel_backend must be None or 'numpy', not {self.kernel_backend!r}")

    @property
    def dropping_policy(self) -> DroppingPolicy:
        """Completion-time regime matching the configured system behaviour."""
        return DroppingPolicy.EVICT if self.evict_executing_at_deadline else DroppingPolicy.PENDING


# Module-level aliases keep the inner loop free of attribute lookups on the
# enum class (popped hundreds of thousands of times on large traces).
_ARRIVAL = int(EventKind.ARRIVAL)
_FINISH = int(EventKind.FINISH)
#: A deadline no task has.
_NEVER = float("inf")


class HCSimulator:
    """Discrete-event simulator binding a PET matrix, machines, and a heuristic."""

    def __init__(
        self,
        pet: PETMatrix,
        heuristic: MappingHeuristicProtocol,
        *,
        config: SimulatorConfig | None = None,
        machine_prices: Sequence[float] | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.pet = pet
        self.heuristic = heuristic
        self.config = config or SimulatorConfig()
        prices = (
            list(machine_prices)
            if machine_prices is not None
            else default_prices_for(pet.machine_names)
        )
        if len(prices) != pet.num_machines:
            raise ValueError("one price per machine is required")
        self.machine_prices = [float(p) for p in prices]
        self.rng = make_generator(rng)
        #: Telemetry registry and derived loop plumbing; rebound from the
        #: process-active registry every time a run/stream begins (see
        #: ``_reset_state``), so one engine instance can serve traced and
        #: untraced runs back to back.
        self._obs = NULL_TELEMETRY
        self._mapping_span_name = f"engine.mapping_event.{self.heuristic.name}"
        self._popped_arrivals = 0
        self._popped_finishes = 0
        self._popped_markers = 0

        self.machines: list[Machine] = []
        #: Live incremental availability state; (re)built by ``_reset_state``
        #: and notified next to every queue mutation below.
        self.state: SystemState | None = None
        #: Optional decision-stream observer (see :class:`EngineObserver`).
        self.observer: EngineObserver | None = None
        #: The single global event heap (arrivals, finishes and rounds as
        #: typed events).
        self.events = EventManager()
        #: The live tasks: injected and not yet terminal.  A task's outcome
        #: moves to ``_outcomes`` at its terminal event and the task is
        #: forgotten; ``_injected`` keeps its id so the id stays taken.
        self.tasks: dict[int, Task] = {}
        self._injected: set[int] = set()
        self._outcomes = OutcomeTable()
        #: The batch queue, kept in ``(arrival, task_id)`` order: arrivals
        #: mostly join in that order already, so it is re-sorted only after
        #: one that did not (``_batch_tail`` is the largest key seen).
        self._batch: dict[int, Task] = {}
        self._batch_tail = (-1, -1)
        self._batch_in_order = True
        #: No task in the batch or a machine's pending queue has a deadline
        #: before this (a lower bound: departures may leave it stale).
        self._earliest_deadline = _NEVER
        self._counters = SimulationCounters()
        self._misses_since_event = 0
        self._terminal_since_event: list[TerminalEvent] = []
        self._now = 0
        #: Latest event timestamp fully processed; arrivals at or before
        #: this instant can no longer join their mapping event.
        self._processed_through = -1
        #: Next instant a scheduling round is due (batched-rounds mode);
        #: ``None`` until the first engine step fires the first round.
        self._next_round_at: int | None = None
        #: Timestamp of the latest ROUND marker pushed, so each round
        #: boundary is scheduled into the heap at most once.
        self._round_event_at: int | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, trace: Iterable[TaskSpec]) -> SimulationResult:
        """Simulate arrival-sorted task specs to completion; return the metrics.

        Each spec is injected once the clock reaches its arrival, as the
        serving layer does, so ``trace`` may be any iterable (a
        :class:`~repro.workload.generator.WorkloadTrace`, a list, a
        generator).  A spec arriving before an instant already processed
        raises ``ValueError``.
        """
        self.begin_stream()
        for spec in trace:
            self.advance_until(spec.arrival)
            self.inject_task(spec)
        return self.finish_stream()

    # ------------------------------------------------------------------
    # The arrival path, driven by ``run`` and by the serving layer.
    # ------------------------------------------------------------------
    def begin_stream(self) -> None:
        """Reset the engine for an externally-driven arrival stream."""
        self._reset_state()
        self.heuristic.reset()

    def validate_inject(self, spec: TaskSpec) -> None:
        """Check a submission against the live stream *without* touching state.

        Raises exactly the errors :meth:`inject_task` would raise — a task
        type the PET has no row for, a duplicate task id, or an arrival at or
        before an already-processed event timestamp — so admission layers can
        reject a submission *before* advancing the virtual clock on its behalf.
        """
        if self.state is None:
            raise RuntimeError("begin_stream() must be called before inject_task()")
        if spec.task_type >= self.pet.num_task_types:
            raise ValueError(
                f"task {spec.task_id} has type {spec.task_type}, but the PET has "
                f"{self.pet.num_task_types} task types"
            )
        if spec.task_id in self._injected:
            raise ValueError(f"task {spec.task_id} was already injected")
        if spec.arrival <= self._processed_through:
            raise ValueError(
                f"task {spec.task_id} arrives at {spec.arrival}, but the engine "
                f"has already processed events through {self._processed_through}"
            )

    def inject_task(self, spec: TaskSpec) -> Task:
        """Add one arriving task to the live system.

        The arrival must not predate an already-processed event timestamp:
        the mapping event at that instant has fired and cannot be re-run
        without breaking replay equivalence.
        """
        self.validate_inject(spec)
        task = Task(spec)
        self.tasks[spec.task_id] = task
        self._injected.add(spec.task_id)
        self.events.push(spec.arrival, EventKind.ARRIVAL, spec.task_id)
        return task

    def advance_until(self, time: int) -> None:
        """Process every pending event timestamp strictly before ``time``.

        Events at ``time`` itself stay pending so late-but-simultaneous
        arrivals can still join their mapping event — the caller advances
        past an instant only once it knows no more arrivals carry it.
        """
        events = self.events
        while events and events.next_time() < time:
            self._step_once()

    def finish_stream(self) -> SimulationResult:
        """Drain all pending events, finalise, and return the metrics."""
        while self.events:
            self._step_once()
        self._finalise_unfinished_tasks()
        if self._obs.enabled:
            self._publish_obs_counters()
        outcomes, self._outcomes = self._outcomes.freeze(), OutcomeTable()
        return SimulationResult(
            outcomes=outcomes,
            machine_names=tuple(self.pet.machine_names),
            machine_busy_times=tuple(float(m.busy_time) for m in self.machines),
            machine_prices=tuple(self.machine_prices),
            num_task_types=self.pet.num_task_types,
            counters=self._counters,
            end_time=self._now,
        )

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _step_once(self) -> None:
        """Process one event timestamp: events, drops, mapping policy, starts."""
        events = self.events
        now = events.next_time()
        self._now = now
        tasks = self.tasks
        batch = self._batch
        while events.pending_at(now):
            _, kind, _, task_id = events.pop()
            if kind == _ARRIVAL:
                self._popped_arrivals += 1
                task = batch[task_id] = tasks[task_id]
                self._earliest_deadline = min(self._earliest_deadline, task.deadline)
                if (now, task_id) > self._batch_tail:
                    self._batch_tail = (now, task_id)
                else:
                    self._batch_in_order = False
            elif kind == _FINISH:
                self._popped_finishes += 1
                # A task dropped after its finish was scheduled is forgotten.
                task = tasks.get(task_id)
                if task is not None:
                    self._handle_finish(task, now)
            else:
                # ROUND markers carry no payload: popping one is what forces
                # this step to exist.
                self._popped_markers += 1
        self._drop_missed_tasks(now)
        window = self.config.batch_window
        if window == 0 or self._next_round_at is None or now >= self._next_round_at:
            # Per-event mode, or a scheduling round is due: map now.  The
            # next round is anchored at this firing instant.
            self._run_mapping_event(now)
            self._next_round_at = now + window
        elif batch and self._round_event_at != self._next_round_at:
            # Mid-round step left unmapped tasks behind: make sure the round
            # boundary itself exists in the heap, or a quiet stretch (no
            # arrivals, no finishes) would strand them past the window.
            self._round_event_at = self._next_round_at
            events.push(self._next_round_at, EventKind.ROUND)
        self._start_executions(now)
        self._processed_through = now

    def _reset_state(self) -> None:
        self.machines = [
            Machine(
                index=i,
                name=name,
                queue_capacity=self.config.queue_capacity,
                price_per_time=self.machine_prices[i],
            )
            for i, name in enumerate(self.pet.machine_names)
        ]
        self.state = SystemState(
            self.machines,
            self.pet,
            policy=self.config.dropping_policy,
            max_impulses=self.config.max_impulses,
        )
        self.tasks = {}
        self._injected = set()
        self._outcomes = OutcomeTable()
        self._batch = {}
        self._batch_tail = (-1, -1)
        self._batch_in_order = True
        self._earliest_deadline = _NEVER
        self.events = EventManager()
        self._counters = SimulationCounters()
        self._misses_since_event = 0
        self._terminal_since_event = []
        self._now = 0
        self._processed_through = -1
        self._next_round_at = None
        self._round_event_at = None
        # Bind the active telemetry registry for this run.
        self._obs = obs_active()
        self._mapping_span_name = f"engine.mapping_event.{self.heuristic.name}"
        self._popped_arrivals = 0
        self._popped_finishes = 0
        self._popped_markers = 0

    def _publish_obs_counters(self) -> None:
        """Fold this stream's totals into the active telemetry registry.

        Called once per finished stream (additive ``count``), so sequential
        trials under one registry — a multi-trial ``repro simulate``, the
        obs-smoke scale run — accumulate rather than overwrite.
        """
        obs = self._obs
        counters = self._counters
        obs.count("engine.events.arrival", self._popped_arrivals)
        obs.count("engine.events.finish", self._popped_finishes)
        obs.count("engine.events.marker", self._popped_markers)
        obs.count("engine.rounds", counters.mapping_events)
        obs.count("engine.mapping_events", counters.mapping_events)
        obs.count("engine.completions", counters.completions)
        obs.count("engine.assignments", counters.assignments)
        obs.count("engine.deferrals", counters.deferrals)
        obs.count("engine.evictions", counters.evictions)
        obs.count("engine.deadline_miss_drops", counters.deadline_miss_drops)
        obs.count("engine.proactive_drops", counters.proactive_drops)
        obs.gauge("engine.end_time", self._now)

    def _handle_finish(self, task: Task, now: int) -> None:
        # The task may have been proactively dropped after this event was
        # scheduled; such stale events are ignored.
        if task.status is not TaskStatus.EXECUTING or task.machine is None:
            return
        machine = self.machines[task.machine]
        if machine.executing is not task:
            return
        machine.finish_executing(task, now)
        self.state.notify_finish(machine.index, task)
        start = now if task.exec_start is None else task.exec_start
        if start + (task.actual_execution_time or 0) <= now:
            task.mark_completed(now)
            self._counters.completions += 1
            if not task.on_time:
                self._misses_since_event += 1
            self._record_terminal(task)
        else:
            # Eviction: deadline reached before the sampled execution time elapsed.
            task.mark_dropped(now, DropReason.DEADLINE_MISS_EXECUTING)
            self._counters.evictions += 1
            self._misses_since_event += 1
            self._record_terminal(task)

    def _record_terminal(self, task: Task) -> None:
        """The one path to a terminal state: record the outcome, forget the task."""
        self._terminal_since_event.append(
            TerminalEvent(task.task_id, task.task_type, task.on_time)
        )
        self._outcomes.append(task)
        del self.tasks[task.task_id]
        if self.observer is not None:
            self.observer.on_terminal(task)

    def _drop_missed_tasks(self, now: int) -> None:
        """Remove tasks whose deadlines passed while waiting (Section III)."""
        if now < self._earliest_deadline:
            return
        for task_id in [tid for tid, t in self._batch.items() if t.deadline <= now]:
            task = self._batch.pop(task_id)
            task.mark_dropped(now, DropReason.DEADLINE_MISS_UNMAPPED)
            self._counters.deadline_miss_drops += 1
            self._misses_since_event += 1
            self._record_terminal(task)
        for machine in self.machines:
            for task in [t for t in machine.pending if t.deadline <= now]:
                machine.remove_pending(task)
                self.state.notify_remove(machine.index, task)
                task.mark_dropped(now, DropReason.DEADLINE_MISS_QUEUED)
                self._counters.deadline_miss_drops += 1
                self._misses_since_event += 1
                self._record_terminal(task)
        waiting = chain(self._batch.values(), *(machine.pending for machine in self.machines))
        self._earliest_deadline = min((t.deadline for t in waiting), default=_NEVER)

    def _run_mapping_event(self, now: int) -> None:
        if not self._batch_in_order:
            self._batch = dict(
                sorted(self._batch.items(), key=lambda item: (item[1].arrival, item[0]))
            )
            self._batch_in_order = True
        context = MappingContext(
            now=now,
            batch=tuple(self._batch.values()),
            machines=tuple(self.machines),
            pet=self.pet,
            policy=self.config.dropping_policy,
            misses_since_last_event=self._misses_since_event,
            terminal_events=tuple(self._terminal_since_event),
            max_impulses=self.config.max_impulses,
            state=self.state,
        )
        self._misses_since_event = 0
        self._terminal_since_event = []
        obs = self._obs
        if obs.enabled:
            start_ns = perf_counter_ns()
        decision = self.heuristic.map_tasks(context)
        decision.validate(context)
        self._apply_decision(decision, now)
        self._counters.mapping_events += 1
        if obs.enabled:
            obs.add_span(
                self._mapping_span_name,
                start_ns,
                perf_counter_ns() - start_ns,
                now=now,
                batch=len(context.batch),
            )
        if self.observer is not None:
            self.observer.on_mapping_event(now, decision)

    def _apply_decision(self, decision: MappingDecision, now: int) -> None:
        for drop in decision.queue_drops:
            machine = self.machines[drop.machine_index]
            task = self.tasks.get(drop.task_id)
            if task is None:
                continue
            if machine.executing is task:
                machine.finish_executing(task, now)
                self.state.notify_finish(machine.index, task)
            else:
                machine.remove_pending(task)
                self.state.notify_remove(machine.index, task)
            task.mark_dropped(now, DropReason.PRUNED)
            self._counters.proactive_drops += 1
            self._record_terminal(task)

        # Assignments are *applied* in decision order (that order decides who
        # wins the last free slot); under batched rounds the observer sees
        # them in ascending task-id order — the deterministic contract for
        # round consumers — while per-event mode keeps the decision order,
        # as the per-event reference loop reports it.
        applied: list[tuple[Task, int]] = []
        for assignment in decision.assignments:
            machine = self.machines[assignment.machine_index]
            task = self._batch.get(assignment.task_id)
            if task is None:
                continue
            if not machine.has_free_slot:
                continue
            del self._batch[task.task_id]
            machine.enqueue(task, now)
            self.state.notify_enqueue(machine.index, task)
            self._counters.assignments += 1
            if self.observer is not None:
                applied.append((task, machine.index))
        if self.observer is not None and applied:
            if self.config.batch_window > 0:
                applied.sort(key=lambda pair: pair[0].task_id)
            for task, machine_index in applied:
                self.observer.on_assigned(task, machine_index, now)

        self._counters.deferrals += len(decision.deferrals)

    def _start_executions(self, now: int) -> None:
        for machine in self.machines:
            if machine.is_idle and machine.pending:
                head = machine.pending[0]
                pet_entry = self.pet.get(head.task_type, machine.index)
                actual = int(pet_entry.sample(self.rng))
                task = machine.start_next(now, actual)
                self.state.notify_start(machine.index)
                finish_time = now + actual
                if (
                    self.config.evict_executing_at_deadline
                    and finish_time > task.deadline
                ):
                    self.events.push(
                        max(task.deadline, now + 1), EventKind.FINISH, task.task_id
                    )
                else:
                    self.events.push(finish_time, EventKind.FINISH, task.task_id)

    def _finalise_unfinished_tasks(self) -> None:
        """Terminate tasks stranded when the event queue drains.

        This only happens when a heuristic defers tasks even though no more
        events will ever fire (e.g. nothing can meet its deadline any more);
        those tasks are dropped at their deadlines.
        """
        end_time = self._now
        for task in list(self.tasks.values()):
            drop_time = max(task.deadline, self._now)
            end_time = max(end_time, drop_time)
            if task.status is TaskStatus.PENDING:
                reason = DropReason.DEADLINE_MISS_UNMAPPED
            elif task.status is TaskStatus.QUEUED:
                reason = DropReason.DEADLINE_MISS_QUEUED
            else:
                reason = DropReason.DEADLINE_MISS_EXECUTING
            if task.machine is not None:
                machine = self.machines[task.machine]
                if machine.executing is task:
                    machine.finish_executing(task, drop_time)
                    self.state.notify_finish(machine.index, task)
                elif task in machine.pending:
                    machine.remove_pending(task)
                    self.state.notify_remove(machine.index, task)
            task.mark_dropped(drop_time, reason)
            self._counters.deadline_miss_drops += 1
            self._record_terminal(task)
        self._now = end_time


def simulate(
    pet: PETMatrix,
    heuristic: MappingHeuristicProtocol,
    trace: Iterable[TaskSpec],
    *,
    config: SimulatorConfig | None = None,
    machine_prices: Sequence[float] | None = None,
    rng: np.random.Generator | int | None = None,
) -> SimulationResult:
    """One-call convenience wrapper: build an :class:`HCSimulator` and run it."""
    sim = HCSimulator(
        pet, heuristic, config=config, machine_prices=machine_prices, rng=rng
    )
    return sim.run(trace)
