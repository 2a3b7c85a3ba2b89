"""The per-event loop the engine is pinned against at ``batch_window=0``.

One mapping event per event timestamp, in the order of Section III: the
timestamp's events (arrivals before finishes, each kind first come first
served), then the drops of tasks whose deadlines passed while waiting,
then the mapping event, then every idle machine starts its queue head.
The events sit in one sorted list.  The loop drives the library's
machines, ``SystemState`` and mappers, so a difference between it and
``HCSimulator`` is a difference in the engine's own bookkeeping.
"""

from __future__ import annotations

import bisect
import itertools

from repro.simulator.cost import default_prices_for
from repro.simulator.engine import SimulatorConfig
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext, TerminalEvent
from repro.simulator.metrics import SimulationCounters, SimulationResult, TaskOutcomes
from repro.simulator.state import SystemState
from repro.simulator.task import DropReason, Task, TaskStatus
from repro.utils.rng import make_generator

ARRIVAL, FINISH = 0, 1


def arrival_order(task: Task) -> tuple[int, int]:
    return task.arrival, task.task_id


class ReferenceLoop:
    """Runs a whole trace; ``observer`` gets the engine's callbacks."""

    def __init__(self, pet, heuristic, *, config: SimulatorConfig | None = None, rng=None):
        self.pet, self.heuristic = pet, heuristic
        self.config = config or SimulatorConfig()
        if self.config.batch_window:
            raise ValueError("the reference loop maps at every event; use batch_window=0")
        self.prices = default_prices_for(pet.machine_names)
        self.rng = make_generator(rng)
        self.observer = None

    def run(self, trace) -> SimulationResult:
        config = self.config
        self.machines = [
            Machine(index=i, name=name, queue_capacity=config.queue_capacity, price_per_time=price)
            for i, (name, price) in enumerate(zip(self.pet.machine_names, self.prices))
        ]
        self.state = SystemState(
            self.machines, self.pet, policy=config.dropping_policy, max_impulses=config.max_impulses
        )
        self.heuristic.reset()
        self.tasks = {spec.task_id: Task(spec) for spec in trace}
        self.batch: dict[int, Task] = {}
        self.counters = SimulationCounters()
        self.misses, self.terminal = 0, []
        self.seq = itertools.count()
        self.events: list[tuple[int, int, int, int]] = []
        for task in self.tasks.values():
            self.push(task.arrival, ARRIVAL, task.task_id)
        now = 0
        while self.events:
            now = self.events[0][0]
            while self.events and self.events[0][0] == now:
                _, kind, _, task_id = self.events.pop(0)
                if kind == ARRIVAL:
                    self.batch[task_id] = self.tasks[task_id]
                else:
                    self.finish(self.tasks[task_id], now)
            self.drop_missed(now)
            self.map(now)
            self.start(now)
        now = self.finalise(now)
        return SimulationResult(
            outcomes=TaskOutcomes.of(sorted(self.tasks.values(), key=arrival_order)),
            machine_names=tuple(self.pet.machine_names),
            machine_busy_times=tuple(float(m.busy_time) for m in self.machines),
            machine_prices=tuple(self.prices),
            num_task_types=self.pet.num_task_types,
            counters=self.counters,
            end_time=now,
        )

    def push(self, time: int, kind: int, task_id: int) -> None:
        bisect.insort(self.events, (int(time), kind, next(self.seq), task_id))

    def record(self, task: Task, now: int, reason: DropReason | None, counter: str) -> None:
        """Make ``task`` terminal: completed if ``reason`` is None, else dropped."""
        if reason is None:
            task.mark_completed(now)
        else:
            task.mark_dropped(now, reason)
        setattr(self.counters, counter, getattr(self.counters, counter) + 1)
        self.misses += not task.on_time
        self.terminal.append(TerminalEvent(task.task_id, task.task_type, task.on_time))
        if self.observer is not None:
            self.observer.on_terminal(task)

    def release(self, task: Task, now: int) -> None:
        """Take a queued or executing task off its machine."""
        machine = self.machines[task.machine]
        if machine.executing is task:
            machine.finish_executing(task, now)
            self.state.notify_finish(machine.index, task)
        else:
            machine.remove_pending(task)
            self.state.notify_remove(machine.index, task)

    def finish(self, task: Task, now: int) -> None:
        """A finish event: completion, or eviction at the deadline; stale if dropped since."""
        if task.status is not TaskStatus.EXECUTING:
            return
        if self.machines[task.machine].executing is not task:
            return
        self.release(task, now)
        if task.exec_start + task.actual_execution_time <= now:
            self.record(task, now, None, "completions")
        else:
            self.record(task, now, DropReason.DEADLINE_MISS_EXECUTING, "evictions")

    def drop_missed(self, now: int) -> None:
        for task in [t for t in self.batch.values() if t.deadline <= now]:
            del self.batch[task.task_id]
            self.record(task, now, DropReason.DEADLINE_MISS_UNMAPPED, "deadline_miss_drops")
        for machine in self.machines:
            for task in [t for t in machine.pending if t.deadline <= now]:
                self.release(task, now)
                self.record(task, now, DropReason.DEADLINE_MISS_QUEUED, "deadline_miss_drops")

    def map(self, now: int) -> None:
        context = MappingContext(
            now=now,
            batch=tuple(sorted(self.batch.values(), key=arrival_order)),
            machines=tuple(self.machines),
            pet=self.pet,
            policy=self.config.dropping_policy,
            misses_since_last_event=self.misses,
            terminal_events=tuple(self.terminal),
            max_impulses=self.config.max_impulses,
            state=self.state,
        )
        self.misses, self.terminal = 0, []
        decision = self.heuristic.map_tasks(context)
        decision.validate(context)
        for drop in decision.queue_drops:
            task = self.tasks[drop.task_id]
            if not task.is_terminal:
                self.release(task, now)
                self.record(task, now, DropReason.PRUNED, "proactive_drops")
        for assignment in decision.assignments:
            machine = self.machines[assignment.machine_index]
            task = self.batch.get(assignment.task_id)
            if task is None or not machine.has_free_slot:
                continue
            del self.batch[task.task_id]
            machine.enqueue(task, now)
            self.state.notify_enqueue(machine.index, task)
            self.counters.assignments += 1
            if self.observer is not None:
                self.observer.on_assigned(task, machine.index, now)
        self.counters.deferrals += len(decision.deferrals)
        self.counters.mapping_events += 1
        if self.observer is not None:
            self.observer.on_mapping_event(now, decision)

    def start(self, now: int) -> None:
        for machine in self.machines:
            if machine.is_idle and machine.pending:
                head = machine.pending[0]
                actual = int(self.pet.get(head.task_type, machine.index).sample(self.rng))
                task = machine.start_next(now, actual)
                self.state.notify_start(machine.index)
                finish = now + actual
                if self.config.evict_executing_at_deadline and finish > task.deadline:
                    finish = max(task.deadline, now + 1)
                self.push(finish, FINISH, task.task_id)

    def finalise(self, now: int) -> int:
        """Drop, at its deadline, every task left when the events run out."""
        end = now
        for task in [t for t in self.tasks.values() if not t.is_terminal]:
            drop_time = max(task.deadline, now)
            end = max(end, drop_time)
            reason = {
                TaskStatus.PENDING: DropReason.DEADLINE_MISS_UNMAPPED,
                TaskStatus.QUEUED: DropReason.DEADLINE_MISS_QUEUED,
            }.get(task.status, DropReason.DEADLINE_MISS_EXECUTING)
            if task.machine is not None:
                self.release(task, drop_time)
            self.record(task, drop_time, reason, "deadline_miss_drops")
        return end
