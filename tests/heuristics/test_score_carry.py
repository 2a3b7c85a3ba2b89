"""Phase-1 scores carried across mapping events equal a from-scratch fill.

``ScoreTable`` copies, from the previous mapping event's table, every score
whose task and availability *object* are unchanged, and hands the kernel
only the rest.  The oracle here is the table itself without a previous one:
at every mapping event a second ``ScoreTable`` is filled from scratch on the
same virtual state and must agree on ``robustness``, ``completion`` and
``machine_open`` at ``atol=0`` — on whole seeded trials (the oversubscribed
scale trace, where nearly everything is carried, and the reference trace)
and on random histories built from the moves that decide whether a column
may be carried: a machine nothing happened to (same object), a pruner
override, an equal-valued or same-offset *new* object, an idle machine
(``point(now)`` is a fresh object every event), a machine that fills up
mid-event and later shows the old object again.

Mutation-checked: keying on ``offset`` equality instead of identity, or not
forgetting the object of a column closed by a full queue, fails this module.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import DroppingPolicy
from repro.core.pmf import DiscretePMF
from repro.heuristics import base
from repro.heuristics.base import ScoreTable, VirtualMachine, VirtualSystemState
from repro.heuristics.registry import HEURISTIC_NAMES, make_heuristic
from repro.pet.builders import build_pet_from_means, build_transcoding_pet
from repro.serve.service import offline_decision_map
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.task import Task
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.spec import TaskSpec
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)


def assert_equals_fresh_fill(table: ScoreTable, context, virtual) -> None:
    fresh = ScoreTable(context, virtual, table.tasks)
    assert np.array_equal(table.machine_open, fresh.machine_open)
    assert np.array_equal(table.robustness, fresh.robustness)
    assert np.array_equal(table.completion, fresh.completion)


# ----------------------------------------------------------------------
# Whole trials
# ----------------------------------------------------------------------
class CheckedScoreTable(ScoreTable):
    """A ``ScoreTable`` that checks its own fill against a from-scratch one."""

    fills = 0
    pairs_carried = 0

    def __init__(self, context, virtual, tasks, previous=None) -> None:
        super().__init__(context, virtual, tasks, previous=previous)
        assert_equals_fresh_fill(self, context, virtual)
        CheckedScoreTable.fills += 1
        CheckedScoreTable.pairs_carried += self.pairs_reused


@pytest.fixture(scope="module")
def trial_inputs(oversub_inputs):
    return {
        "scale-oversub": oversub_inputs,
        "reference": (build_transcoding_pet(rng=2019), load_trace(REFERENCE_TRACE)),
    }


@pytest.mark.parametrize("batch_window", [0, 120])
@pytest.mark.parametrize("heuristic", ["PAMF", "PAM", "MOC"])
@pytest.mark.parametrize("workload", ["scale-oversub", "reference"])
def test_every_fill_of_a_trial_equals_a_fresh_fill(
    workload, heuristic, batch_window, trial_inputs, monkeypatch
):
    pet, trace = trial_inputs[workload]
    monkeypatch.setattr(base, "ScoreTable", CheckedScoreTable)
    monkeypatch.setattr(CheckedScoreTable, "fills", 0)
    monkeypatch.setattr(CheckedScoreTable, "pairs_carried", 0)
    HCSimulator(
        pet,
        make_heuristic(heuristic, num_task_types=pet.num_task_types),
        config=SimulatorConfig(batch_window=batch_window),
        rng=2021,
    ).run(trace)
    assert CheckedScoreTable.fills > 0
    if batch_window == 0:
        # Not vacuous.  (Between 120-unit rounds every machine has moved on.)
        assert CheckedScoreTable.pairs_carried > 1000


# ----------------------------------------------------------------------
# Random histories
# ----------------------------------------------------------------------
N_MACHINES = 5
N_TYPES = 3
EVENTS = 14

HISTORY_PET = build_pet_from_means(
    [[20.0, 35.0, 50.0, 28.0, 42.0], [45.0, 25.0, 60.0, 33.0, 30.0], [30.0, 40.0, 22.0, 55.0, 38.0]],
    task_types=["t0", "t1", "t2"],
    machine_names=[f"m{j}" for j in range(N_MACHINES)],
    rng=3,
    n_samples=60,
)


class History:
    """A seeded stream of mapping events over hand-made virtual queues.

    Every machine keeps the availability objects it has shown so far, so
    "nothing happened" (the very same object) and "the queue went back to
    an earlier state" (an older object) are both one draw away.
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.now = 0
        self.next_id = 0
        self.batch: list[Task] = []
        self.shown: list[list[DiscretePMF]] = [
            [DiscretePMF.point(0)] for _ in range(N_MACHINES)
        ]
        self.current = [pool[0] for pool in self.shown]
        self.machines = tuple(
            Machine(j, HISTORY_PET.machine_names[j], queue_capacity=4)
            for j in range(N_MACHINES)
        )
        self.previous: ScoreTable | None = None

    def random_pmf(self, offset: int) -> DiscretePMF:
        width = int(self.rng.integers(1, 6))
        probs = self.rng.random(width) + 0.05
        probs /= probs.sum()
        return DiscretePMF.from_impulses(
            {offset + 3 * k: float(p) for k, p in enumerate(probs)}
        )

    def next_availability(self, j: int) -> DiscretePMF:
        current = self.current[j]
        move = int(self.rng.integers(0, 8))
        if move <= 3:  # nothing happened / pruner passed chain[-1] through
            return current
        if move == 4:  # an earlier state of the queue came back
            return self.shown[j][int(self.rng.integers(0, len(self.shown[j])))]
        if move == 5:  # idle machine: equal value, fresh object every event
            return DiscretePMF.point(self.now)
        if move == 6:  # pruner override: same offset, other contents
            return self.random_pmf(current.offset)
        return self.random_pmf(self.now + int(self.rng.integers(0, 40)))

    def arrivals_and_departures(self) -> None:
        self.batch = [t for t in self.batch if self.rng.random() < 0.9]
        for _ in range(int(self.rng.integers(0, 9))):
            self.next_id += 1
            self.batch.append(
                Task(
                    TaskSpec(
                        arrival=self.now,
                        task_id=self.next_id,
                        task_type=int(self.rng.integers(0, N_TYPES)),
                        deadline=self.now + int(self.rng.integers(10, 160)),
                    )
                )
            )

    def event(self) -> None:
        self.now += int(self.rng.integers(1, 12))
        self.arrivals_and_departures()
        virtual_machines = []
        for j in range(N_MACHINES):
            availability = self.next_availability(j)
            self.current[j] = availability
            self.shown[j].append(availability)
            free_slots = int(self.rng.integers(0, 5))  # 0: full queue, closed column
            virtual_machines.append(VirtualMachine(j, free_slots, availability))
        context = MappingContext(
            now=self.now,
            batch=tuple(self.batch),
            machines=self.machines,
            pet=HISTORY_PET,
            policy=DroppingPolicy.EVICT,
        )
        virtual = VirtualSystemState(context)
        virtual.machines = virtual_machines
        table = ScoreTable(context, virtual, list(self.batch), previous=self.previous)
        assert_equals_fresh_fill(table, context, virtual)

        # Phase-2 commits: the column moves on, or closes on a full queue
        # (and the tail may be dropped again before the next event).
        for _ in range(int(self.rng.integers(0, 3))):
            open_machines = [vm for vm in virtual_machines if vm.has_free_slot]
            if not open_machines:
                break
            vm = open_machines[int(self.rng.integers(0, len(open_machines)))]
            vm.availability = self.random_pmf(vm.availability.offset + 5)
            vm.free_slots -= 1
            if self.rng.random() < 0.5:
                self.current[vm.index] = vm.availability
                self.shown[vm.index].append(vm.availability)
            table.mark_dirty(vm.index)
            if self.rng.random() < 0.7:
                table.best_pairs(robustness_based=True)  # flushes the dirty column
                assert_equals_fresh_fill(table, context, virtual)
        self.previous = table


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_histories_equal_a_fresh_fill(seed):
    history = History(seed)
    for _ in range(EVENTS):
        history.event()


def test_histories_both_carry_and_decline():
    """The property above sees fills that carry and fills with nothing to carry."""
    carried = declined = 0
    for seed in range(20):
        history = History(seed)
        for _ in range(EVENTS):
            before = history.previous
            history.event()
            table = history.previous
            if table.pairs_reused:
                carried += 1
            elif before is not None and table.n and before.n:
                declined += 1
    assert carried > 150 and declined > 30


def test_a_task_is_matched_by_object_not_only_by_id():
    """Same ids, same availability objects, other deadlines: nothing to carry."""

    def event(deadline: int, previous=None):
        tasks = [
            Task(TaskSpec(arrival=0, task_id=i, task_type=i % N_TYPES, deadline=deadline + i))
            for i in range(8)
        ]
        context = MappingContext(
            now=0, batch=tuple(tasks), machines=machines, pet=HISTORY_PET
        )
        virtual = VirtualSystemState(context, availability_override=availability)
        return ScoreTable(context, virtual, tasks, previous=previous), context, virtual

    machines = tuple(
        Machine(j, HISTORY_PET.machine_names[j], queue_capacity=4) for j in range(N_MACHINES)
    )
    availability = {j: DiscretePMF.point(2 * j) for j in range(N_MACHINES)}
    first, _, _ = event(60)
    second, context, virtual = event(35, previous=first)
    assert second.pairs_reused == 0
    assert_equals_fresh_fill(second, context, virtual)
    assert not np.array_equal(first.robustness, second.robustness)


# ----------------------------------------------------------------------
# One heuristic instance, several runs
# ----------------------------------------------------------------------
def test_reset_drops_the_previous_table(small_gamma_pet, small_trace):
    for name in HEURISTIC_NAMES:
        heuristic = make_heuristic(name, num_task_types=small_gamma_pet.num_task_types)
        HCSimulator(small_gamma_pet, heuristic, rng=5).run(small_trace)
        assert heuristic._previous_table is not None, name
        heuristic.reset()
        assert heuristic._previous_table is None, name


@pytest.mark.parametrize("name", ["PAMF", "PAM", "MOC", "MM"])
def test_reused_instance_decides_like_a_fresh_one(name, small_gamma_pet, small_trace):
    """Trace A then trace B, on two PETs and on one, through one instance."""
    other_pet = build_pet_from_means(
        [[25.0, 30.0, 45.0], [40.0, 28.0, 55.0], [35.0, 38.0, 26.0], [50.0, 52.0, 41.0]],
        task_types=["t0", "t1", "t2", "t3"],
        machine_names=["m0", "m1", "m2"],
        rng=9,
        n_samples=200,
    )
    trace_b = generate_workload(
        WorkloadConfig(num_tasks=120, time_span=500, beta=1.5), other_pet, rng=17
    )

    def fresh():
        return make_heuristic(name, num_task_types=small_gamma_pet.num_task_types)

    def decisions(heuristic, pet, trace):
        return offline_decision_map(HCSimulator(pet, heuristic, rng=5).run(trace))

    reused = fresh()
    assert decisions(reused, small_gamma_pet, small_trace) == decisions(
        fresh(), small_gamma_pet, small_trace
    )
    assert decisions(reused, other_pet, trace_b) == decisions(fresh(), other_pet, trace_b)
    assert decisions(reused, small_gamma_pet, trace_b) == decisions(
        fresh(), small_gamma_pet, trace_b
    )
