"""Tests for the two-phase framework: virtual queues and the score table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy
from repro.core.pmf import DiscretePMF
from repro.heuristics.base import ScoreTable, VirtualSystemState
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext, batch_in_arrival_order
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec

from reference import pmf as model


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def make_context(tiny_pet, machines, batch=(), now=0):
    return MappingContext(
        now=now,
        batch=batch_in_arrival_order(batch),
        machines=tuple(machines),
        pet=tiny_pet,
        policy=DroppingPolicy.EVICT,
    )


def filled(context, virtual=None, *, robustness_based=True) -> ScoreTable:
    """A run's table after its first fill."""
    table = ScoreTable(robustness_based=robustness_based)
    table.fill(context, virtual or VirtualSystemState(context))
    return table


def best_machines(table: ScoreTable) -> dict[int, int]:
    """Task id -> best machine of every phase-2 candidate."""
    rows, machines, _ = table.best_rows()
    return {table.tasks[row].task_id: machine for row, machine in zip(rows, machines.tolist())}


class TestVirtualSystemState:
    def test_free_slots_reflect_real_queues(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=3)
        m1 = Machine(1, "fast-b", queue_capacity=3)
        m0.enqueue(make_task(10), now=0)
        context = make_context(tiny_pet, [m0, m1])
        virtual = VirtualSystemState(context)
        assert virtual.free_slots == [2, 3]
        assert virtual.total_free_slots == 5

    def test_assign_consumes_slot_and_extends_availability(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=2)
        context = make_context(tiny_pet, [m0])
        virtual = VirtualSystemState(context)
        before = virtual.availability(0).mean()
        task = make_task(1, task_type=0, deadline=400)
        virtual.assign(task, 0)
        after = virtual.availability(0).mean()
        assert virtual.free_slots[0] == 1
        assert virtual.total_free_slots == 1
        assert after > before

    def test_assign_to_full_machine_raises(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=1)
        m0.enqueue(make_task(10), now=0)
        context = make_context(tiny_pet, [m0])
        virtual = VirtualSystemState(context)
        with pytest.raises(RuntimeError):
            virtual.assign(make_task(1), 0)

    def test_dropped_tasks_excluded_from_availability(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=4)
        long_task = make_task(10, task_type=2, deadline=600)
        m0.enqueue(long_task, now=0)
        context = make_context(tiny_pet, [m0])
        with_task = VirtualSystemState(context)
        # Dropping the only queued task leaves the machine free now.
        post_drop = {0: DiscretePMF.point(context.now)}
        without_task = VirtualSystemState(
            context, dropped_task_ids={10}, availability_override=post_drop
        )
        assert without_task.free_slots[0] == with_task.free_slots[0] + 1
        assert without_task.availability(0) is post_drop[0]
        assert without_task.availability(0).mean() < with_task.availability(0).mean()

    def test_lost_tasks_without_override_raise(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=4)
        m1 = Machine(1, "fast-b", queue_capacity=4)
        m0.enqueue(make_task(10, task_type=2, deadline=600), now=0)
        m1.enqueue(make_task(11, task_type=2, deadline=600), now=0)
        context = make_context(tiny_pet, [m0, m1])
        # Machine 1 lost task 11, but only machine 0 has a post-drop availability.
        with pytest.raises(ValueError, match="machine 1 lost queued tasks"):
            VirtualSystemState(
                context,
                dropped_task_ids={10, 11},
                availability_override={0: DiscretePMF.point(context.now)},
            )

    def test_availability_override_used(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=4)
        m0.enqueue(make_task(10), now=0)
        context = make_context(tiny_pet, [m0])
        override = {0: DiscretePMF.point(77)}
        virtual = VirtualSystemState(context, availability_override=override)
        assert virtual.availability(0).probability_at(77) == pytest.approx(1.0)


class TestScoreTable:
    def test_scores_match_reference_functions(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=3)
        m1 = Machine(1, "fast-b", queue_capacity=3)
        m0.enqueue(make_task(10, task_type=2, deadline=600), now=0)
        batch = [make_task(1, task_type=0, deadline=40), make_task(2, task_type=1, deadline=35)]
        context = make_context(tiny_pet, [m0, m1], batch=batch)
        virtual = VirtualSystemState(context)
        table = filled(context, virtual)
        assert table.tasks == list(context.batch)
        for i, task in enumerate(table.tasks):
            for j in range(2):
                exec_pmf = tiny_pet.get(task.task_type, j)
                availability = virtual.availability(j)
                assert table.robustness[i, j] == model.success_probability(
                    exec_pmf.to_impulses(), availability.to_impulses(), task.deadline
                )
                assert table.completion[i, j] == pytest.approx(
                    availability.mean() + exec_pmf.mean()
                )

    def test_best_rows_robustness_based_prefers_affinity(self, tiny_pet):
        """With idle machines, an alpha task must pick fast-a and a beta task
        fast-b — the inconsistent-affinity matching the PET encodes."""
        machines = [Machine(0, "fast-a", queue_capacity=3), Machine(1, "fast-b", queue_capacity=3)]
        batch = [make_task(1, task_type=0, deadline=9), make_task(2, task_type=1, deadline=9)]
        table = filled(make_context(tiny_pet, machines, batch=batch))
        assert best_machines(table) == {1: 0, 2: 1}
        # Each row's best score is its robustness on its best machine.
        rows, machines, best = table.best_rows()
        assert np.array_equal(best, table.robustness[rows, machines])

    def test_best_rows_completion_based_prefers_fastest_machine(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=3), Machine(1, "fast-b", queue_capacity=3)]
        batch = [make_task(1, task_type=0, deadline=900)]
        table = filled(make_context(tiny_pet, machines, batch=batch), robustness_based=False)
        assert best_machines(table) == {1: 0}  # alpha is fastest on fast-a
        rows, machines, best = table.best_rows()
        assert np.array_equal(best, table.completion[rows, machines])
        # A completion-based table never scores robustness.
        assert np.all(table.robustness[: table.n] == -1.0)

    def test_deactivated_tasks_excluded(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=3)]
        batch = [make_task(1, deadline=100), make_task(2, deadline=100)]
        table = filled(make_context(tiny_pet, machines, batch=batch))
        table.active[0] = False  # task 1's slot
        assert set(best_machines(table)) == {2}
        table.active[1] = False
        assert not table.best_rows()[0].size

    def test_a_column_dirtied_with_no_active_row_is_not_rescored(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=3)]
        batch = [make_task(1, deadline=100), make_task(2, deadline=100)]
        context = make_context(tiny_pet, machines, batch=batch)
        virtual = VirtualSystemState(context)
        table = filled(context, virtual)
        scored = table.pairs_scored
        for slot in range(2):  # the event's last commit
            virtual.assign(table.tasks[slot], 0)
            table.active[slot] = False
            table.mark_dirty(0)
            table.best_rows()
        assert table.pairs_scored == scored + 2  # after the first commit only

    def test_full_machines_are_closed(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=1)
        m0.enqueue(make_task(10), now=0)
        m1 = Machine(1, "fast-b", queue_capacity=1)
        batch = [make_task(1, task_type=0, deadline=100)]
        table = filled(make_context(tiny_pet, [m0, m1], batch=batch))
        # Only fast-b has a free slot, even though fast-a would be better.
        assert best_machines(table) == {1: 1}

    def test_kernel_operand_is_as_wide_as_the_widest_column_scored(self, tiny_pet):
        """Widening grows the packed operand to the new width, never past it."""
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        batch = [make_task(i, task_type=i % 2, deadline=900) for i in range(1, 6)]
        context = make_context(tiny_pet, machines, batch=batch)
        virtual = VirtualSystemState(context)
        table = filled(context, virtual)
        widest = int(table._widths.max())
        for slot in range(4):  # each commit rescores machine 0 on a wider availability
            virtual.assign(table.tasks[slot], 0)
            table.active[slot] = False
            table.mark_dirty(0)
            table.best_rows()
            assert table._widths[0] > widest
            widest = int(table._widths.max())
            assert table._start_times.shape == table._start_probs.shape == (2, widest)

    def test_refresh_after_assignment_changes_scores(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=3)]
        batch = [make_task(1, task_type=0, deadline=100), make_task(2, task_type=0, deadline=100)]
        context = make_context(tiny_pet, machines, batch=batch)
        virtual = VirtualSystemState(context)
        table = filled(context, virtual)
        before = table.completion[1, 0]
        virtual.assign(table.tasks[0], 0)
        table.active[0] = False
        table.mark_dirty(0)
        table.best_rows()  # rescores the dirty column
        after = table.completion[1, 0]
        assert after > before
