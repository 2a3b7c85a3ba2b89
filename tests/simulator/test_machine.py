"""Tests for machines, bounded FCFS queues and the chains ``SystemState`` walks on them."""

from __future__ import annotations

import pytest

from repro.core.completion import DroppingPolicy
from repro.simulator.machine import Machine
from repro.simulator.state import SystemState
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, arrival: int = 0, deadline: int = 100) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


@pytest.fixture
def machine() -> Machine:
    return Machine(index=0, name="fast-a", queue_capacity=3)


class TestQueueMechanics:
    def test_initial_state(self, machine):
        assert machine.is_idle
        assert machine.free_slots == 3
        assert machine.occupied_slots == 0
        assert machine.queued_tasks() == []

    def test_enqueue_fills_slots(self, machine):
        for i in range(3):
            machine.enqueue(make_task(i), now=0)
        assert machine.free_slots == 0
        with pytest.raises(RuntimeError):
            machine.enqueue(make_task(99), now=0)

    def test_capacity_counts_executing_task(self, machine):
        machine.enqueue(make_task(0), now=0)
        machine.start_next(now=0, actual_execution_time=10)
        machine.enqueue(make_task(1), now=0)
        machine.enqueue(make_task(2), now=0)
        assert machine.occupied_slots == 3
        assert not machine.has_free_slot

    def test_fcfs_order(self, machine):
        first, second = make_task(0), make_task(1)
        machine.enqueue(first, now=0)
        machine.enqueue(second, now=0)
        started = machine.start_next(now=0, actual_execution_time=5)
        assert started is first
        assert machine.pending[0] is second

    def test_start_requires_idle_machine(self, machine):
        machine.enqueue(make_task(0), now=0)
        machine.start_next(now=0, actual_execution_time=5)
        machine.enqueue(make_task(1), now=0)
        with pytest.raises(RuntimeError):
            machine.start_next(now=1, actual_execution_time=5)

    def test_start_requires_pending_task(self, machine):
        with pytest.raises(RuntimeError):
            machine.start_next(now=0, actual_execution_time=5)

    def test_finish_accumulates_busy_time(self, machine):
        task = make_task(0)
        machine.enqueue(task, now=0)
        machine.start_next(now=5, actual_execution_time=10)
        machine.finish_executing(task, now=15)
        assert machine.busy_time == 10
        assert machine.is_idle

    def test_finish_rejects_wrong_task(self, machine):
        task, other = make_task(0), make_task(1)
        machine.enqueue(task, now=0)
        machine.start_next(now=0, actual_execution_time=5)
        with pytest.raises(RuntimeError):
            machine.finish_executing(other, now=5)

    def test_remove_pending(self, machine):
        task = make_task(0)
        machine.enqueue(task, now=0)
        machine.remove_pending(task)
        assert machine.occupied_slots == 0
        with pytest.raises(RuntimeError):
            machine.remove_pending(task)

    def test_queue_version_bumps_on_mutations(self, machine):
        version = machine.queue_version
        task = make_task(0)
        machine.enqueue(task, now=0)
        assert machine.queue_version > version
        version = machine.queue_version
        machine.start_next(now=0, actual_execution_time=3)
        assert machine.queue_version > version
        version = machine.queue_version
        machine.finish_executing(task, now=3)
        assert machine.queue_version > version

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Machine(0, "x", queue_capacity=0)
        with pytest.raises(ValueError):
            Machine(0, "x", price_per_time=-1)


def availability(machine, pet, now, policy=DroppingPolicy.EVICT):
    """The machine's availability as a state with no history walks it."""
    return SystemState([machine], pet, policy=policy).availability(0, now)


class TestProbabilisticState:
    def test_idle_machine_availability_is_now(self, machine, tiny_pet):
        assert availability(machine, tiny_pet, 42).probability_at(42) == pytest.approx(1.0)

    def test_chain_tracks_queue_depth(self, machine, tiny_pet):
        for i, deadline in enumerate((200, 220, 240)):
            machine.enqueue(make_task(i, task_type=0, deadline=deadline), now=0)
        chain = SystemState([machine], tiny_pet, policy=DroppingPolicy.NONE).chain(0, 0)
        assert len(chain) == 3
        means = [p.mean() for p in chain]
        assert means[0] < means[1] < means[2]

    def test_availability_reflects_executing_task_start(self, machine, tiny_pet):
        task = make_task(0, task_type=0, deadline=300)
        machine.enqueue(task, now=0)
        machine.start_next(now=50, actual_execution_time=5)
        availability_at_60 = availability(machine, tiny_pet, 60, DroppingPolicy.NONE)
        # anchored at the start time 50 plus the PET support of type 0 on machine 0
        assert availability_at_60.support()[0] >= 54
        assert availability_at_60.mean() == pytest.approx(50 + tiny_pet.get(0, 0).mean())

    def test_evict_policy_bounds_availability_by_deadline(self, machine, tiny_pet):
        task = make_task(0, task_type=2, deadline=10)  # gamma: long execution, tight deadline
        machine.enqueue(task, now=0)
        machine.start_next(now=0, actual_execution_time=20)
        assert availability(machine, tiny_pet, 1).support()[1] <= 10

    @pytest.mark.parametrize("now", [0, 5, 200], ids=["at-start", "mid-execution", "overdue"])
    def test_executing_pmf_is_anchored_at_start_whatever_now(self, machine, tiny_pet, now):
        # Section IV: the executing task's PCT is its PET shifted by its
        # observed start time, however long it has been running.
        task = make_task(0, task_type=0, deadline=300)
        machine.enqueue(task, now=0)
        machine.start_next(now=0, actual_execution_time=50)
        pmf = machine.executing_completion_pmf(tiny_pet, now=now)
        want = tiny_pet.get(0, 0).shift(0)
        assert pmf.offset == want.offset
        assert list(pmf.probs) == list(want.probs)

    def test_idle_machine_executing_pmf_is_point_now(self, machine, tiny_pet):
        assert machine.executing_completion_pmf(tiny_pet, now=42).probability_at(42) == 1.0

    def test_anchor_pmf_requires_an_executing_task(self, machine, tiny_pet):
        with pytest.raises(RuntimeError, match="no executing task"):
            machine.executing_anchor_pmf(tiny_pet, now=0)

    @pytest.mark.parametrize("policy", list(DroppingPolicy), ids=lambda p: p.value)
    def test_anchor_pmf_collapses_the_tail_only_under_evict(self, machine, tiny_pet, policy):
        task = make_task(0, task_type=2, deadline=10)  # gamma: long execution, tight deadline
        machine.enqueue(task, now=0)
        machine.start_next(now=0, actual_execution_time=20)
        raw = machine.executing_completion_pmf(tiny_pet, now=4)
        anchor = machine.executing_anchor_pmf(tiny_pet, now=4, policy=policy)
        assert anchor.total_mass() == pytest.approx(1.0)
        if policy is DroppingPolicy.EVICT:
            assert anchor.support()[1] == 10
            assert anchor.probability_at(10) == pytest.approx(1.0 - raw.cdf(9))
        else:
            assert anchor.offset == raw.offset
            assert list(anchor.probs) == list(raw.probs)
