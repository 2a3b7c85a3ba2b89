"""ScoreTable's batched mapping-event scoring vs the reference model.

The equivalence gate for the heuristics layer: a mapping event scored
through the batched engine (`ScoreTable` -> `packed_success_probability`)
must reproduce the reference model's per-pair Eq. 1 and expected
completion (``tests/reference/pmf.py``) **bit for bit** (``atol=0``), both
on the first fill and after phase-2 commits trigger single-column rescores.
"""

from __future__ import annotations

import numpy as np

from repro.core.completion import DroppingPolicy
from repro.core.pmf import DiscretePMF
from repro.heuristics.base import ScoreTable, VirtualSystemState
from repro.heuristics.registry import make_heuristic
from repro.obs import NULL_TELEMETRY, Telemetry, use_telemetry
from repro.simulator.engine import HCSimulator
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec

from reference import pmf as model


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def make_event(pet, *, now: int = 0, queue_plan=(), batch_plan=()) -> MappingContext:
    """Build a mapping event: machines with queued tasks plus a batch queue.

    ``queue_plan[j]`` lists (task_id, task_type, deadline) tuples enqueued on
    machine ``j``; ``batch_plan`` lists the unmapped batch tasks.
    """
    machines = []
    for j in range(pet.num_machines):
        machine = Machine(j, pet.machine_names[j], queue_capacity=4)
        for task_id, task_type, deadline in (queue_plan[j] if j < len(queue_plan) else ()):
            machine.enqueue(make_task(task_id, task_type=task_type, deadline=deadline), now=now)
        machines.append(machine)
    batch = [make_task(tid, task_type=tt, deadline=d) for tid, tt, d in batch_plan]
    return MappingContext(
        now=now,
        batch=tuple(batch),
        machines=tuple(machines),
        pet=pet,
        policy=DroppingPolicy.EVICT,
    )


def scalar_reference(pet, virtual, tasks):
    """The pre-batching double loop, pair by pair through the model."""
    n, m = len(tasks), len(virtual.free_slots)
    robustness = np.full((n, m), -1.0)
    completion = np.full((n, m), np.inf)
    for i, task in enumerate(tasks):
        for j, free in enumerate(virtual.free_slots):
            if free <= 0:
                continue
            exec_pmf = pet.get(task.task_type, j).to_impulses()
            availability = virtual.availability(j).to_impulses()
            robustness[i, j] = model.success_probability(exec_pmf, availability, task.deadline)
            expected = model.expected_completion(exec_pmf, availability)
            if expected == expected:  # no mass, no expected completion: inf
                completion[i, j] = expected
    return robustness, completion


def filled(context, virtual) -> ScoreTable:
    table = ScoreTable()
    table.fill(context, virtual)
    return table


def paper_scale_event(pet, *, n_tasks: int = 40, seed: int = 17) -> MappingContext:
    rng = np.random.default_rng(seed)
    queue_plan = [
        [
            (1000 + 10 * j + k, int(rng.integers(0, pet.num_task_types)), int(rng.integers(100, 400)))
            for k in range(int(rng.integers(0, 3)))
        ]
        for j in range(pet.num_machines)
    ]
    batch_plan = [
        (i, int(rng.integers(0, pet.num_task_types)), int(rng.integers(30, 500)))
        for i in range(n_tasks)
    ]
    return make_event(pet, queue_plan=queue_plan, batch_plan=batch_plan)


class TestScoreTableEquivalence:
    def test_initial_grid_bit_identical_to_scalar_loop(self, small_gamma_pet):
        context = paper_scale_event(small_gamma_pet)
        virtual = VirtualSystemState(context)
        table = filled(context, virtual)
        robustness, completion = scalar_reference(
            small_gamma_pet, virtual, table.tasks
        )
        assert np.array_equal(table.robustness[: table.n], robustness)
        assert np.array_equal(table.completion[: table.n], completion)

    def test_refresh_after_commits_stays_bit_identical(self, small_gamma_pet):
        context = paper_scale_event(small_gamma_pet, seed=23)
        virtual = VirtualSystemState(context)
        table = filled(context, virtual)
        # Commit a few provisional assignments, marking one column dirty
        # each time, exactly as the two-phase loop does.
        for step in range(3):
            rows, machines, _ = table.best_rows()
            if not rows.size:
                break
            slot, machine = int(rows[step % rows.size]), int(machines[step % rows.size])
            virtual.assign(table.tasks[slot], machine)
            table.active[slot] = False
            table.mark_dirty(machine)
            table.best_rows()  # rescores the dirty column
            robustness, completion = scalar_reference(
                small_gamma_pet, virtual, table.tasks
            )
            open_cols = table.machine_open
            assert np.array_equal(table.robustness[: table.n, open_cols], robustness[:, open_cols])
            assert np.array_equal(table.completion[: table.n, open_cols], completion[:, open_cols])

    def test_full_machines_closed_columns(self, tiny_pet):
        context = make_event(
            tiny_pet,
            queue_plan=[[(90, 0, 300)] * 4, []],  # machine 0 completely full
            batch_plan=[(1, 0, 100), (2, 1, 120)],
        )
        table = filled(context, VirtualSystemState(context))
        assert not table.machine_open[0]
        assert np.all(table.robustness[: table.n, 0] == -1.0)
        assert np.all(np.isinf(table.completion[: table.n, 0]))
        assert table.machine_open[1]

    def test_empty_batch_is_noop(self, tiny_pet):
        context = make_event(tiny_pet)
        table = filled(context, VirtualSystemState(context))
        assert table.n == 0
        assert not table.best_rows()[0].size


def fill_and_commit(context, virtual, commits: int = 3) -> ScoreTable:
    """A fill and up to ``commits`` phase-2 commits, each rescoring its column."""
    table = filled(context, virtual)
    for step in range(commits):
        rows, machines, _ = table.best_rows()
        if not rows.size:
            break
        slot, machine = int(rows[step % rows.size]), int(machines[step % rows.size])
        virtual.assign(table.tasks[slot], machine)
        table.active[slot] = False
        table.mark_dirty(machine)
    table.best_rows()
    return table


class TestScoreTableTelemetry:
    """Each kernel call is one ``kernel.success_probability`` span."""

    def test_one_kernel_span_per_score_call(self, small_gamma_pet, monkeypatch):
        calls = []
        score = ScoreTable._score

        def counting_score(self, rows, columns):
            calls.append(rows.size)
            return score(self, rows, columns)

        monkeypatch.setattr(ScoreTable, "_score", counting_score)
        context = paper_scale_event(small_gamma_pet, seed=29)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            fill_and_commit(context, VirtualSystemState(context))
        assert len(calls) >= 2  # the fill and at least one rescore
        kernel_spans = [name for name, *_ in telemetry.spans if name.startswith("kernel.")]
        assert kernel_spans == ["kernel.success_probability"] * len(calls)
        assert telemetry.timings["kernel.success_probability"].count == len(calls)

    def test_a_completion_based_trial_never_calls_the_kernel(self, small_gamma_pet, small_trace):
        """MM, MSD and MMU read completions only: no robustness is scored."""
        for name in ("MM", "MSD", "MMU"):
            telemetry = Telemetry()
            with use_telemetry(telemetry):
                result = HCSimulator(small_gamma_pet, make_heuristic(name), rng=5).run(small_trace)
            assert result.counters.assignments > 0
            assert telemetry.counters["score_table.pairs_scored"] > 0
            assert "kernel.success_probability" not in telemetry.timings, name

    def test_spans_never_change_a_score(self, small_gamma_pet):
        context = paper_scale_event(small_gamma_pet, seed=29)
        with use_telemetry(Telemetry()):
            traced = fill_and_commit(context, VirtualSystemState(context))
        with use_telemetry(NULL_TELEMETRY):
            plain = fill_and_commit(context, VirtualSystemState(context))
        assert plain._obs is None
        assert np.array_equal(traced.robustness[: traced.n], plain.robustness[: plain.n])
        assert np.array_equal(traced.completion[: traced.n], plain.completion[: plain.n])


class TestBatchedAvailabilityHelper:
    def test_rows_match_scalar_availability(self, small_gamma_pet, scratch_chain):
        context = paper_scale_event(small_gamma_pet, seed=31)
        batch = context.state.availability_batch(context.now)
        assert batch.n_pmfs == small_gamma_pet.num_machines
        for j, machine in enumerate(context.machines):
            chain = scratch_chain(machine, small_gamma_pet, context.now, policy=context.policy)
            want = chain[-1] if chain else DiscretePMF.point(context.now)
            assert batch.row(j).compact().allclose(want, atol=0)

    def test_state_availability_batch_uses_cache(self, small_gamma_pet):
        context = paper_scale_event(small_gamma_pet, seed=37)
        batch = context.state.availability_batch(context.now)
        assert context.state.availability_batch(context.now) is batch
        for j in range(small_gamma_pet.num_machines):
            assert batch.row(j).compact().allclose(
                context.machine_availability(j).compact(), atol=0
            )
