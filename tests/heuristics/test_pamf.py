"""Tests for the Fair Pruning Mapper (PAMF)."""

from __future__ import annotations

import pytest

from repro.core.completion import DroppingPolicy
from repro.heuristics.pamf import FairPruningMapper
from repro.pruning.thresholds import PruningThresholds
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext, TerminalEvent
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def make_context(tiny_pet, machines, batch, *, now=0, misses=0, terminal=()):
    return MappingContext(
        now=now,
        batch=tuple(batch),
        machines=tuple(machines),
        pet=tiny_pet,
        policy=DroppingPolicy.EVICT,
        misses_since_last_event=misses,
        terminal_events=tuple(terminal),
    )


class TestSufferageIntegration:
    def test_terminal_events_update_sufferage(self, tiny_pet):
        pamf = FairPruningMapper(tiny_pet.num_task_types, fairness_factor=0.1)
        machine = Machine(0, "fast-a", queue_capacity=6)
        events = [TerminalEvent(5, task_type=2, on_time=False)]
        pamf.map_tasks(make_context(tiny_pet, [machine], [], terminal=events))
        assert pamf.fairness.sufferage_of(2) == pytest.approx(0.1)

    def test_suffering_type_gets_relaxed_deferring_threshold(self, tiny_pet):
        """A marginal task of a suffering type is mapped while the same task
        of a non-suffering type would be deferred."""
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        marginal = make_task(1, task_type=2, deadline=14)

        neutral = FairPruningMapper(tiny_pet.num_task_types, thresholds, fairness_factor=0.2)
        decision = neutral.map_tasks(make_context(tiny_pet, machines, [marginal]))
        assert decision.assignments == []

        suffering = FairPruningMapper(tiny_pet.num_task_types, thresholds, fairness_factor=0.2)
        misses = [TerminalEvent(i, task_type=2, on_time=False) for i in range(3)]
        machines2 = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        decision = suffering.map_tasks(
            make_context(tiny_pet, machines2, [make_task(1, task_type=2, deadline=14)], terminal=misses)
        )
        assert {a.task_id for a in decision.assignments} == {1}

    def test_successes_rebalance_sufferage(self, tiny_pet):
        pamf = FairPruningMapper(tiny_pet.num_task_types, fairness_factor=0.1)
        machine = Machine(0, "fast-a", queue_capacity=6)
        events = [
            TerminalEvent(1, task_type=0, on_time=False),
            TerminalEvent(2, task_type=0, on_time=True),
        ]
        pamf.map_tasks(make_context(tiny_pet, [machine], [], terminal=events))
        assert pamf.fairness.sufferage_of(0) == pytest.approx(0.0)

    def test_zero_fairness_factor_behaves_like_pam(self, tiny_pet):
        from repro.heuristics.pam import PruningAwareMapper

        machines_a = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        machines_b = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        batch = [make_task(i, task_type=i % 3, deadline=60 + 10 * i) for i in range(5)]
        pam_decision = PruningAwareMapper().map_tasks(make_context(tiny_pet, machines_a, batch))
        pamf_decision = FairPruningMapper(tiny_pet.num_task_types, fairness_factor=0.0).map_tasks(
            make_context(tiny_pet, machines_b, batch)
        )
        assert [
            (a.task_id, a.machine_index) for a in pam_decision.assignments
        ] == [(a.task_id, a.machine_index) for a in pamf_decision.assignments]

    def test_reset_clears_sufferage(self, tiny_pet):
        pamf = FairPruningMapper(tiny_pet.num_task_types, fairness_factor=0.1)
        machine = Machine(0, "fast-a", queue_capacity=6)
        pamf.map_tasks(
            make_context(
                tiny_pet, [machine], [], terminal=[TerminalEvent(1, task_type=1, on_time=False)]
            )
        )
        pamf.reset()
        assert pamf.fairness.sufferage_of(1) == 0.0

    def test_name_and_factor(self, tiny_pet):
        pamf = FairPruningMapper(tiny_pet.num_task_types, fairness_factor=0.15)
        assert pamf.name == "PAMF"
        assert pamf.fairness_factor == pytest.approx(0.15)
