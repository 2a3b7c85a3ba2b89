"""Tests for the baseline heuristics (MM, MSD, MMU, MOC)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy
from repro.heuristics.baselines import (
    MaxOntimeCompletions,
    MinCompletionMaxUrgency,
    MinCompletionMinCompletion,
    MinCompletionSoonestDeadline,
)
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def candidates(*pairs):
    """A score table holding the given candidates, one slot each: ``(table, rows, machines)``.

    Each pair is ``(task, machine, completion, robustness, mean_exec)``; every
    other cell holds a value no rule would pick.
    """
    n, m = len(pairs), 1 + max(pair[1] for pair in pairs)
    table = SimpleNamespace(
        tasks=[pair[0] for pair in pairs],
        task_ids=np.array([pair[0].task_id for pair in pairs]),
        deadlines=np.array([pair[0].deadline for pair in pairs]),
        completion=np.full((n, m), np.inf),
        robustness=np.full((n, m), -1.0),
        mean_execution=np.full((n, m), np.inf),
    )
    rows = np.arange(n)
    machines = np.array([pair[1] for pair in pairs])
    for row, (_, machine, completion, robustness, mean_exec) in enumerate(pairs):
        table.completion[row, machine] = completion
        table.robustness[row, machine] = robustness
        table.mean_execution[row, machine] = mean_exec
    return table, rows, machines


def make_pair(task, machine=0, completion=10.0, robustness=0.5, mean_exec=5.0):
    return task, machine, completion, robustness, mean_exec


def picked(heuristic, *pairs) -> int:
    """Task id of the pair ``heuristic``'s phase 2 commits."""
    table, rows, machines = candidates(*pairs)
    return table.tasks[rows[heuristic.phase2_pick(table, rows, machines)]].task_id


def make_context(tiny_pet, machines, batch, now=0):
    return MappingContext(
        now=now,
        batch=tuple(batch),
        machines=tuple(machines),
        pet=tiny_pet,
        policy=DroppingPolicy.EVICT,
    )


class TestPhase2Selection:
    def test_mm_selects_minimum_completion(self, tiny_pet):
        heuristic = MinCompletionMinCompletion()
        pairs = (
            make_pair(make_task(1), completion=20.0),
            make_pair(make_task(2), completion=10.0),
            make_pair(make_task(3), completion=15.0),
        )
        assert picked(heuristic, *pairs) == 2

    def test_mm_breaks_ties_by_mean_execution(self):
        heuristic = MinCompletionMinCompletion()
        pairs = (
            make_pair(make_task(1), completion=10.0, mean_exec=9.0),
            make_pair(make_task(2), completion=10.0, mean_exec=3.0),
        )
        assert picked(heuristic, *pairs) == 2

    def test_msd_selects_soonest_deadline(self):
        heuristic = MinCompletionSoonestDeadline()
        pairs = (
            make_pair(make_task(1, deadline=300), completion=5.0),
            make_pair(make_task(2, deadline=100), completion=50.0),
        )
        assert picked(heuristic, *pairs) == 2

    def test_msd_breaks_ties_by_completion(self):
        heuristic = MinCompletionSoonestDeadline()
        pairs = (
            make_pair(make_task(1, deadline=100), completion=50.0),
            make_pair(make_task(2, deadline=100), completion=5.0),
        )
        assert picked(heuristic, *pairs) == 2

    def test_mmu_selects_greatest_urgency(self):
        heuristic = MinCompletionMaxUrgency()
        pairs = (
            make_pair(make_task(1, deadline=100), completion=10.0),  # slack 90
            make_pair(make_task(2, deadline=30), completion=10.0),   # slack 20 -> more urgent
        )
        assert picked(heuristic, *pairs) == 2

    def test_mmu_prioritises_already_hopeless_tasks(self):
        """The behaviour the paper criticises: tasks whose expected completion
        exceeds their deadline are treated as maximally urgent."""
        heuristic = MinCompletionMaxUrgency()
        pairs = (
            make_pair(make_task(1, deadline=100), completion=10.0),
            make_pair(make_task(2, deadline=10), completion=50.0),  # impossible
        )
        assert picked(heuristic, *pairs) == 2

    def test_moc_selects_highest_robustness(self):
        heuristic = MaxOntimeCompletions()
        pairs = (
            make_pair(make_task(1), robustness=0.6, machine=0),
            make_pair(make_task(2), robustness=0.9, machine=1),
            make_pair(make_task(3), robustness=0.7, machine=2),
        )
        assert picked(heuristic, *pairs) == 2

    def test_moc_permutation_prefers_distinct_machines(self):
        """When the top pairs collide on one machine, the permutation phase
        prefers committing the pair whose robustness is not discounted."""
        heuristic = MaxOntimeCompletions(permutation_depth=3)
        pairs = (
            make_pair(make_task(1), robustness=0.90, machine=0),
            make_pair(make_task(2), robustness=0.89, machine=0),
            make_pair(make_task(3), robustness=0.88, machine=1),
        )
        assert picked(heuristic, *pairs) in (1, 3)


class TestMocCulling:
    def test_culls_below_threshold(self, tiny_pet):
        heuristic = MaxOntimeCompletions(culling_threshold=0.30)
        culled = heuristic.filter_candidates(np.array([0.10, 0.50, 0.30]), np.array([0, 1, 2]))
        assert culled.tolist() == [True, False, False]
        assert not heuristic.records_deferrals  # a culled task is not a pruner deferral

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MaxOntimeCompletions(culling_threshold=1.5)
        with pytest.raises(ValueError):
            MaxOntimeCompletions(permutation_depth=0)


class TestFullMappingEvents:
    def test_mm_fills_free_slots(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=2), Machine(1, "fast-b", queue_capacity=2)]
        batch = [make_task(i, task_type=i % 3, deadline=900) for i in range(6)]
        context = make_context(tiny_pet, machines, batch)
        decision = MinCompletionMinCompletion().map_tasks(context)
        decision.validate(context)
        assert len(decision.assignments) == 4  # all four free slots filled
        assert len({a.task_id for a in decision.assignments}) == 4

    def test_mm_exhausts_small_batch(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        batch = [make_task(1, deadline=900)]
        context = make_context(tiny_pet, machines, batch)
        decision = MinCompletionMinCompletion().map_tasks(context)
        assert len(decision.assignments) == 1

    def test_mm_assigns_affine_machine_when_free(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        batch = [make_task(1, task_type=1, deadline=900)]  # beta fastest on fast-b
        context = make_context(tiny_pet, machines, batch)
        decision = MinCompletionMinCompletion().map_tasks(context)
        assert decision.assignments[0].machine_index == 1

    def test_moc_leaves_hopeless_tasks_unmapped(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        hopeless = make_task(1, task_type=2, deadline=5)  # cannot finish anywhere
        fine = make_task(2, task_type=0, deadline=900)
        context = make_context(tiny_pet, machines, [hopeless, fine])
        decision = MaxOntimeCompletions().map_tasks(context)
        assigned = {a.task_id for a in decision.assignments}
        assert 2 in assigned
        assert 1 not in assigned

    def test_empty_batch_returns_empty_decision(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=2)]
        context = make_context(tiny_pet, machines, [])
        for heuristic in (
            MinCompletionMinCompletion(),
            MinCompletionSoonestDeadline(),
            MinCompletionMaxUrgency(),
            MaxOntimeCompletions(),
        ):
            decision = heuristic.map_tasks(context)
            assert decision.assignments == []

    def test_no_free_slots_returns_empty_decision(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=1)
        machine.enqueue(make_task(50), now=0)
        context = make_context(tiny_pet, [machine], [make_task(1, deadline=900)])
        decision = MinCompletionMinCompletion().map_tasks(context)
        assert decision.assignments == []

    def test_heuristic_names(self):
        assert MinCompletionMinCompletion().name == "MM"
        assert MinCompletionSoonestDeadline().name == "MSD"
        assert MinCompletionMaxUrgency().name == "MMU"
        assert MaxOntimeCompletions().name == "MOC"
