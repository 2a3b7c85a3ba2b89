"""Frozen pre-rework engine loop: the differential harness's reference.

This module is a verbatim snapshot of :class:`LegacyHCSimulator` as it stood
before the event-heap rework (one mapping event per event timestamp, no
typed events, no batched scheduling rounds).  It exists for exactly one
purpose: the differential property suite in
``tests/simulator/test_engine_equivalence.py`` replays traces through the
reworked heap engine *and* through this loop and requires bit-identical
decision sequences and metrics (atol=0) whenever ``batch_window=0``.

Do not grow features here.  Behaviour changes belong in
:mod:`repro.simulator.engine`; this reference only ever changes when a
deliberate, gated semantics change is re-pinned.
"""


from __future__ import annotations

import heapq
import itertools
from typing import Sequence

import numpy as np

from ..pet.matrix import PETMatrix
from ..utils.rng import make_generator
from ..workload.generator import WorkloadTrace
from ..workload.spec import TaskSpec
from .cost import default_prices_for
from .engine import EngineObserver, MappingHeuristicProtocol, SimulatorConfig
from .machine import Machine
from .mapping import (
    MappingContext,
    MappingDecision,
    TerminalEvent,
    batch_in_arrival_order,
)
from .metrics import SimulationCounters, SimulationResult, TaskOutcomes
from .state import SystemState
from .task import DropReason, Task, TaskStatus

__all__ = ["LegacyHCSimulator"]

_ARRIVAL = 0
_FINISH = 1


class LegacyHCSimulator:
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
        if self.config.batch_window:
            raise ValueError(
                "the legacy reference loop has no batched rounds; use batch_window=0"
            )
        prices = (
            list(machine_prices)
            if machine_prices is not None
            else default_prices_for(pet.machine_names)
        )
        if len(prices) != pet.num_machines:
            raise ValueError("one price per machine is required")
        self.machine_prices = [float(p) for p in prices]
        self.rng = make_generator(rng)

        self.machines: list[Machine] = []
        #: Live incremental availability state; (re)built by ``_reset_state``
        #: and notified next to every queue mutation below.
        self.state: SystemState | None = None
        #: Optional decision-stream observer (see :class:`EngineObserver`).
        self.observer: EngineObserver | None = None
        self.tasks: dict[int, Task] = {}
        self._batch: dict[int, Task] = {}
        self._events: list[tuple[int, int, int, int]] = []
        self._seq = itertools.count()
        self._counters = SimulationCounters()
        self._misses_since_event = 0
        self._terminal_since_event: list[TerminalEvent] = []
        self._now = 0
        #: Latest event timestamp fully processed in streaming mode; arrivals
        #: at or before this instant can no longer join their mapping event.
        self._processed_through = -1

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, trace: WorkloadTrace) -> SimulationResult:
        """Simulate one workload trace to completion and return the metrics."""
        self.begin_stream()
        for spec in trace:
            self.inject_task(spec)
        return self.finish_stream()

    # ------------------------------------------------------------------
    # Externally-driven streaming mode (the online serving layer).
    # ------------------------------------------------------------------
    def begin_stream(self) -> None:
        """Reset the engine for an externally-driven arrival stream."""
        self._reset_state()
        self.heuristic.reset()

    def inject_task(self, spec: TaskSpec) -> Task:
        """Add one arriving task to the live system.

        The arrival must not predate an already-processed event timestamp:
        the mapping event at that instant has fired and cannot be re-run
        without breaking replay equivalence.
        """
        if self.state is None:
            raise RuntimeError("begin_stream() must be called before inject_task()")
        if spec.task_id in self.tasks:
            raise ValueError(f"task {spec.task_id} was already injected")
        if spec.arrival <= self._processed_through:
            raise ValueError(
                f"task {spec.task_id} arrives at {spec.arrival}, but the engine "
                f"has already processed events through {self._processed_through}"
            )
        task = Task(spec)
        self.tasks[spec.task_id] = task
        self._push_event(spec.arrival, _ARRIVAL, spec.task_id)
        return task

    def advance_until(self, time: int) -> None:
        """Process every pending event timestamp strictly before ``time``.

        Events at ``time`` itself stay pending so late-but-simultaneous
        arrivals can still join their mapping event — the caller advances
        past an instant only once it knows no more arrivals carry it.
        """
        while self._events and self._events[0][0] < time:
            self._step_once()

    def finish_stream(self) -> SimulationResult:
        """Drain all pending events, finalise, and return the metrics."""
        while self._events:
            self._step_once()
        self._finalise_unfinished_tasks()
        return SimulationResult(
            outcomes=TaskOutcomes.of(self.tasks.values()),
            machine_names=tuple(self.pet.machine_names),
            machine_busy_times=tuple(float(m.busy_time) for m in self.machines),
            machine_prices=tuple(self.machine_prices),
            num_task_types=self.pet.num_task_types,
            counters=self._counters,
            end_time=self._now,
        )

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the heap (streaming mode)."""
        return len(self._events)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _step_once(self) -> None:
        """Process one event timestamp: events, drops, mapping, starts."""
        now = self._events[0][0]
        self._now = now
        self._process_events_at(now)
        self._drop_missed_tasks(now)
        self._run_mapping_event(now)
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
        self._batch = {}
        self._events = []
        self._seq = itertools.count()
        self._counters = SimulationCounters()
        self._misses_since_event = 0
        self._terminal_since_event = []
        self._now = 0
        self._processed_through = -1

    def _push_event(self, time: int, kind: int, task_id: int) -> None:
        heapq.heappush(self._events, (int(time), kind, next(self._seq), task_id))

    def _process_events_at(self, now: int) -> None:
        while self._events and self._events[0][0] == now:
            _, kind, _, task_id = heapq.heappop(self._events)
            task = self.tasks[task_id]
            if kind == _ARRIVAL:
                self._batch[task_id] = task
            elif kind == _FINISH:
                self._handle_finish(task, now)

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
        finish_time = (task.exec_start or now) + (task.actual_execution_time or 0)
        if finish_time <= now:
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
        self._terminal_since_event.append(
            TerminalEvent(task.task_id, task.task_type, task.on_time)
        )
        if self.observer is not None:
            self.observer.on_terminal(task)

    def _drop_missed_tasks(self, now: int) -> None:
        """Remove tasks whose deadlines passed while waiting (Section III)."""
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

    def _run_mapping_event(self, now: int) -> None:
        context = MappingContext(
            now=now,
            batch=batch_in_arrival_order(self._batch.values()),
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
        decision = self.heuristic.map_tasks(context)
        decision.validate(context)
        self._apply_decision(decision, now)
        self._counters.mapping_events += 1
        if self.observer is not None:
            self.observer.on_mapping_event(now, decision)

    def _apply_decision(self, decision: MappingDecision, now: int) -> None:
        for drop in decision.queue_drops:
            machine = self.machines[drop.machine_index]
            task = self.tasks[drop.task_id]
            if task.is_terminal:
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

        for assignment in decision.assignments:
            machine = self.machines[assignment.machine_index]
            task = self.tasks[assignment.task_id]
            if task.is_terminal or task.task_id not in self._batch:
                continue
            if not machine.has_free_slot:
                continue
            del self._batch[task.task_id]
            machine.enqueue(task, now)
            self.state.notify_enqueue(machine.index, task)
            self._counters.assignments += 1
            if self.observer is not None:
                self.observer.on_assigned(task, machine.index, now)

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
                    self._push_event(max(task.deadline, now + 1), _FINISH, task.task_id)
                else:
                    self._push_event(finish_time, _FINISH, task.task_id)

    def _finalise_unfinished_tasks(self) -> None:
        """Terminate tasks stranded when the event queue drains.

        This only happens when a heuristic defers tasks even though no more
        events will ever fire (e.g. nothing can meet its deadline any more);
        those tasks are dropped at their deadlines.
        """
        end_time = self._now
        for task in self.tasks.values():
            if task.is_terminal:
                continue
            drop_time = max(task.deadline, self._now)
            end_time = max(end_time, drop_time)
            if task.status is TaskStatus.PENDING:
                reason = DropReason.DEADLINE_MISS_UNMAPPED
            elif task.status is TaskStatus.QUEUED:
                reason = DropReason.DEADLINE_MISS_QUEUED
            else:
                reason = DropReason.DEADLINE_MISS_EXECUTING
            if task.machine is not None and not task.is_terminal:
                machine = self.machines[task.machine]
                if machine.executing is task:
                    machine.finish_executing(task, drop_time)
                    self.state.notify_finish(machine.index, task)
                elif task in machine.pending:
                    machine.remove_pending(task)
                    self.state.notify_remove(machine.index, task)
            task.mark_dropped(drop_time, reason)
            self._counters.deadline_miss_drops += 1
            if self.observer is not None:
                self.observer.on_terminal(task)
        self._now = end_time

