"""The run's phase-1 table equals a from-scratch fill at every fill.

A heuristic keeps one ``ScoreTable`` for a whole run: rows in
arrival-ordered slots (tombstoned when their task stops pending, compacted
when dead slots outnumber live ones, started over when the survivors are
not the batch's prefix), columns keyed on the availability *object* they
were scored against.  The oracle is a fresh table's first fill on the same
event: its rows must equal the persistent table's live slots — task ids in
order, ``robustness`` and ``completion`` at ``atol=0`` — and its
``machine_open`` the table's.  Checked at every fill of whole seeded trials
(the oversubscribed scale trace, where nearly everything is carried, and
the reference trace) and of random histories built from the moves that
decide what may be kept: a machine nothing happened to (same object), an
earlier object coming back, an idle machine (``point(now)`` is a fresh
object every event), a machine that fills up and reopens, phase-2 commits
with and without the engine adopting them, departures from anywhere in the
batch, a task still pending but gone from the batch, a task reissued as a
new object under the same id, a departed id arriving again, and a PET
swap.  Every kernel call must score live slots only.

Mutation-checked: carrying ``completion`` for a changed column, matching
rows by id instead of by object, and scoring a tombstoned slot each fail
this module.
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
from repro.heuristics.base import ScoreTable, VirtualSystemState
from repro.heuristics.registry import HEURISTIC_NAMES, make_heuristic
from repro.pet.builders import build_pet_from_means, build_transcoding_pet
from repro.serve.service import offline_decision_map
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.task import DropReason, Task
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.spec import TaskSpec
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)

FILL = ScoreTable.fill


def assert_live_slots_equal_a_fresh_fill(table: ScoreTable, context, virtual) -> None:
    fresh = ScoreTable()
    FILL(fresh, context, virtual)
    live = np.flatnonzero(table.live[: table.n])
    assert np.array_equal(table.task_ids[live], fresh.task_ids[: fresh.n])
    assert all(table.tasks[slot] is task for slot, task in zip(live.tolist(), fresh.tasks))
    assert np.array_equal(table.machine_open, fresh.machine_open)
    assert np.array_equal(table.robustness[live], fresh.robustness[: fresh.n])
    assert np.array_equal(table.completion[live], fresh.completion[: fresh.n])


class CheckedScoreTable(ScoreTable):
    """A table that scores live slots only and checks every fill against a fresh one."""

    fills = 0
    pairs_carried = 0
    compactions = 0

    def fill(self, context, virtual) -> None:
        FILL(self, context, virtual)
        assert_live_slots_equal_a_fresh_fill(self, context, virtual)
        CheckedScoreTable.fills += 1
        CheckedScoreTable.pairs_carried += self.pairs_reused

    def _score(self, rows, columns) -> None:
        assert self.live[rows].all(), "a tombstoned slot reached the kernel"
        super()._score(rows, columns)

    def _reslot(self, keep, capacity) -> None:
        if keep.size < self.n:
            self.compactions += 1
        super()._reslot(keep, capacity)


# ----------------------------------------------------------------------
# Whole trials
# ----------------------------------------------------------------------
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
MACHINE_NAMES = [f"m{j}" for j in range(N_MACHINES)]

HISTORY_PET = build_pet_from_means(
    [[20.0, 35.0, 50.0, 28.0, 42.0], [45.0, 25.0, 60.0, 33.0, 30.0], [30.0, 40.0, 22.0, 55.0, 38.0]],
    task_types=["t0", "t1", "t2"],
    machine_names=MACHINE_NAMES,
    rng=3,
    n_samples=60,
)
OTHER_PET = build_pet_from_means(
    [
        [26.0, 31.0, 44.0, 36.0, 40.0],
        [38.0, 29.0, 52.0, 30.0, 35.0],
        [33.0, 45.0, 27.0, 48.0, 31.0],
    ],
    task_types=["t0", "t1", "t2"],
    machine_names=MACHINE_NAMES,
    rng=4,
    n_samples=60,
)


class History:
    """A seeded stream of mapping events driving one table, as a run does.

    Every machine keeps the availability objects it has shown so far, so
    "nothing happened" (the very same object) and "the queue went back to
    an earlier state" (an older object) are both one draw away.  ``moves``
    counts what the stream did, for the coverage test below.
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.now = 0
        self.next_id = 0
        self.batch: list[Task] = []
        self.departed: list[Task] = []
        self.shown: list[list[DiscretePMF]] = [
            [DiscretePMF.point(0)] for _ in range(N_MACHINES)
        ]
        self.current = [pool[0] for pool in self.shown]
        self.machines = tuple(
            Machine(j, MACHINE_NAMES[j], queue_capacity=4) for j in range(N_MACHINES)
        )
        self.pet = HISTORY_PET
        self.table = CheckedScoreTable()
        self.moves: dict[str, int] = {}

    def count(self, move: str) -> None:
        self.moves[move] = self.moves.get(move, 0) + 1

    def random_pmf(self, offset: int) -> DiscretePMF:
        width = int(self.rng.integers(1, 6))
        probs = self.rng.random(width) + 0.05
        probs /= probs.sum()
        return DiscretePMF.from_impulses(
            {offset + 3 * k: float(p) for k, p in enumerate(probs)}
        )

    def new_task(self, task_id: int | None = None) -> Task:
        if task_id is None:
            self.next_id += 1
            task_id = self.next_id
        return Task(
            TaskSpec(
                arrival=self.now,
                task_id=task_id,
                task_type=int(self.rng.integers(0, N_TYPES)),
                deadline=self.now + int(self.rng.integers(10, 160)),
            )
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

    def batch_moves(self) -> None:
        rng = self.rng
        for task in list(self.batch):
            if rng.random() < 0.15:  # mapped or missed, from anywhere in the batch
                self.batch.remove(task)
                task.mark_dropped(self.now, DropReason.DEADLINE_MISS_UNMAPPED)
                self.departed.append(task)
                self.count("departure")
        if self.batch and rng.random() < 0.05:
            # Gone from the batch but still pending: the rows start over.
            self.batch.pop(int(rng.integers(len(self.batch))))
            self.count("pending-departure")
        if self.batch and rng.random() < 0.1:
            # The same id as a new object, other type and deadline, in place.
            k = int(rng.integers(len(self.batch)))
            old = self.batch[k].spec
            self.batch[k] = Task(
                TaskSpec(
                    arrival=old.arrival,
                    task_id=old.task_id,
                    task_type=(old.task_type + 1) % N_TYPES,
                    deadline=old.deadline + 7,
                )
            )
            self.count("reissue")
        if self.departed and rng.random() < 0.2:
            # A departed id arriving again, as a new object.
            gone = self.departed.pop(int(rng.integers(len(self.departed))))
            self.batch.append(self.new_task(gone.task_id))
            self.count("re-arrival")
        for _ in range(int(rng.integers(0, 6))):
            self.batch.append(self.new_task())

    def event(self) -> None:
        rng = self.rng
        self.now += int(rng.integers(1, 12))
        self.batch_moves()
        if rng.random() < 0.1:
            self.pet = OTHER_PET if self.pet is HISTORY_PET else HISTORY_PET
            self.count("pet-swap")
        availability = {}
        for j in range(N_MACHINES):
            availability[j] = self.next_availability(j)
            self.current[j] = availability[j]
            self.shown[j].append(availability[j])
        context = MappingContext(
            now=self.now,
            batch=tuple(self.batch),
            machines=self.machines,
            pet=self.pet,
            policy=DroppingPolicy.EVICT,
        )
        virtual = VirtualSystemState(context, availability_override=availability)
        virtual.free_slots = [int(rng.integers(0, 5)) for _ in range(N_MACHINES)]  # 0: closed
        virtual.total_free_slots = sum(virtual.free_slots)
        table = self.table
        compactions = table.compactions
        table.fill(context, virtual)
        if table.compactions > compactions:
            self.count("compaction")
        # Phase-2 commits: the column moves on, or closes on a full
        # queue; the engine may or may not adopt the committed step.
        committed = []
        for _ in range(int(rng.integers(0, 3))):
            slots = np.flatnonzero(table.active[: table.n])
            open_machines = [j for j in range(N_MACHINES) if virtual.free_slots[j] > 0]
            if not slots.size or not open_machines:
                break
            slot = int(slots[int(rng.integers(slots.size))])
            j = open_machines[int(rng.integers(len(open_machines)))]
            virtual.assign(table.tasks[slot], j)
            table.active[slot] = False
            table.mark_dirty(j)
            committed.append(table.tasks[slot])
            if rng.random() < 0.5:
                self.current[j] = virtual.availability(j)
                self.shown[j].append(self.current[j])
            if rng.random() < 0.7:
                table.best_rows(robustness_based=True)  # rescores the dirty column
                assert_live_slots_equal_a_fresh_fill(table, context, virtual)
        for task in committed:
            if rng.random() < 0.7:  # applied; otherwise the decision was not
                self.batch.remove(task)
                task.mark_mapped(0, self.now)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_histories_equal_a_fresh_fill(seed):
    history = History(seed)
    for _ in range(EVENTS):
        history.event()


def test_histories_cover_every_move():
    """The property above sees every move, and fills that carry and that decline."""
    moves: dict[str, int] = {}
    carried = declined = 0
    for seed in range(20):
        history = History(seed)
        for _ in range(EVENTS):
            history.event()
            if history.table.pairs_reused:
                carried += 1
            elif history.table.n:
                declined += 1
        for move, count in history.moves.items():
            moves[move] = moves.get(move, 0) + count
    assert carried > 100 and declined > 50
    for move in (
        "departure",
        "pending-departure",
        "reissue",
        "re-arrival",
        "compaction",
        "pet-swap",
    ):
        assert moves.get(move, 0) >= 3, (move, moves)


def test_a_task_is_matched_by_object_not_only_by_id():
    """Same ids, same availability objects, other deadlines: nothing to carry."""

    def event(table, deadline: int):
        tasks = [
            Task(TaskSpec(arrival=0, task_id=i, task_type=i % N_TYPES, deadline=deadline + i))
            for i in range(8)
        ]
        context = MappingContext(
            now=0, batch=tuple(tasks), machines=machines, pet=HISTORY_PET
        )
        virtual = VirtualSystemState(context, availability_override=availability)
        table.fill(context, virtual)
        return context, virtual

    machines = tuple(
        Machine(j, HISTORY_PET.machine_names[j], queue_capacity=4) for j in range(N_MACHINES)
    )
    availability = {j: DiscretePMF.point(2 * j) for j in range(N_MACHINES)}
    table = ScoreTable()
    event(table, 60)
    first = table.robustness[: table.n].copy()
    context, virtual = event(table, 35)
    assert table.pairs_reused == 0
    assert_live_slots_equal_a_fresh_fill(table, context, virtual)
    assert not np.array_equal(first, table.robustness[: table.n])


# ----------------------------------------------------------------------
# One heuristic instance, several runs
# ----------------------------------------------------------------------
def test_reset_drops_the_table(small_gamma_pet, small_trace):
    for name in HEURISTIC_NAMES:
        heuristic = make_heuristic(name, num_task_types=small_gamma_pet.num_task_types)
        HCSimulator(small_gamma_pet, heuristic, rng=5).run(small_trace)
        assert heuristic._table is not None, name
        heuristic.reset()
        assert heuristic._table is None, name


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
