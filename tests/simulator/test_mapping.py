"""Tests for the mapping context/decision interface."""

from __future__ import annotations

import pytest

from repro.core.completion import DroppingPolicy
from repro.simulator.machine import Machine
from repro.simulator.mapping import (
    Assignment,
    MappingContext,
    MappingDecision,
    QueueDrop,
)
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, arrival: int = 0, task_type: int = 0, deadline: int = 500) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


@pytest.fixture
def context(tiny_pet):
    machines = (
        Machine(0, "fast-a", queue_capacity=3),
        Machine(1, "fast-b", queue_capacity=3),
    )
    machines[0].enqueue(make_task(100, deadline=400), now=0)
    return MappingContext(
        now=10,
        batch=(make_task(2, arrival=3), make_task(1, arrival=5)),
        machines=machines,
        pet=tiny_pet,
        policy=DroppingPolicy.EVICT,
    )


class TestMappingContext:
    def test_machine_availability_cached(self, context):
        first = context.machine_availability(0)
        second = context.machine_availability(0)
        assert first is second

    def test_idle_machine_availability(self, context):
        availability = context.machine_availability(1)
        assert availability.probability_at(10) == pytest.approx(1.0)


class TestMappingDecision:
    def test_assign_accepts_objects_and_indices(self, context):
        decision = MappingDecision()
        decision.assign(context.batch[0], context.machines[1])
        decision.assign(1, 0)
        assert decision.assignments == [Assignment(2, 1), Assignment(1, 0)]

    def test_validate_accepts_consistent_decision(self, context):
        decision = MappingDecision()
        decision.assign(2, 1)
        decision.queue_drops.append(QueueDrop(100, 0))
        decision.validate(context)

    def test_validate_rejects_unknown_task(self, context):
        decision = MappingDecision()
        decision.assign(999, 0)
        with pytest.raises(ValueError):
            decision.validate(context)

    def test_validate_rejects_duplicate_assignment(self, context):
        decision = MappingDecision()
        decision.assign(1, 0)
        decision.assign(1, 1)
        with pytest.raises(ValueError):
            decision.validate(context)

    def test_validate_rejects_unknown_machine(self, context):
        decision = MappingDecision()
        decision.assign(1, 7)
        with pytest.raises(ValueError):
            decision.validate(context)

    def test_validate_rejects_drop_on_unknown_machine(self, context):
        decision = MappingDecision()
        decision.queue_drops.append(QueueDrop(100, 7))
        with pytest.raises(ValueError, match="unknown machine"):
            decision.validate(context)

    def test_validate_rejects_drop_from_another_machine(self, context):
        decision = MappingDecision()
        decision.queue_drops.append(QueueDrop(100, 1))  # task 100 is queued on machine 0
        with pytest.raises(ValueError, match="not queued on machine 1"):
            decision.validate(context)

    def test_validate_rejects_drop_of_unqueued_task(self, context):
        decision = MappingDecision()
        decision.queue_drops.append(QueueDrop(1, 0))  # task 1 is in the batch, not on machine 0
        with pytest.raises(ValueError):
            decision.validate(context)
