"""Work counts on the reference trace: same decisions, less chain work.

``test_decision_digests.py`` pins that demand-driven availability takes the
same decisions; this module pins that it does *less* to reach them, using
the ``state.*`` counters ``SystemState`` publishes:

* no chain step — one (PET entry, predecessor PMF object, deadline) triple
  — is ever executed twice, by the live state and the mapper's virtual
  queue taken together.  (By object, not by value: a chain rebuilt from a
  new base may legitimately repeat values — an evicted head leaves the
  machine at exactly the time its chain predicted, a task dropped at its
  deadline had passed its predecessor's PMF through unchanged.);
* a machine without a free slot is never advanced by a mapping event that
  does not prune it;
* a mapper without a pruner resolves exactly the machines it scores.

The same for phase-1 scoring on the oversubscribed regime (the bench's
``trial-oversub`` inputs): a (task, machine, availability object) triple
the previous mapping event's ``ScoreTable`` holds never reaches the scoring
kernel again — except in a fill too small to be worth a second kernel call,
which is scored whole — and the pairs handed to the kernel stay under a
fifth of the from-scratch count.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.heuristics import base as heuristics_base
from repro.heuristics.base import ScoreTable
from repro.heuristics.registry import make_heuristic
from repro.obs import Telemetry, use_telemetry
from repro.pet.builders import build_transcoding_pet
from repro.simulator import mapping as mapping_module
from repro.simulator import state as state_module
from repro.simulator.engine import HCSimulator
from repro.simulator.state import SystemState
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)


class Watched:
    """Delegating mapper recording what each mapping event could have read."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.scorable_machines = 0
        self.pruning = False
        pruner = getattr(inner, "pruner", None)
        if pruner is not None:
            select = pruner.select_queue_drops

            def watched_select(context):
                self.pruning = True
                try:
                    return select(context)
                finally:
                    self.pruning = False

            pruner.select_queue_drops = watched_select

    def reset(self) -> None:
        self.inner.reset()

    def map_tasks(self, context):
        open_machines = sum(1 for machine in context.machines if machine.has_free_slot)
        if context.batch and open_machines:
            self.scorable_machines += open_machines
        return self.inner.map_tasks(context)


@pytest.fixture(scope="module", params=["MM", "PAMF"])
def watched_run(request):
    steps: list[tuple] = []
    full_machine_advances: list[int] = []
    chain_step = state_module.chain_step
    advance = SystemState._advance

    def make_recorder(where: str):
        def recording_chain_step(pet, prev, deadline, policy, max_impulses=None):
            # Operands are kept, so their ``id`` cannot be recycled.
            steps.append((where, pet, prev, int(deadline)))
            return chain_step(pet, prev, deadline, policy, max_impulses)

        return recording_chain_step

    def recording_advance(self, rec, machine, now):
        if not machine.has_free_slot and not heuristic.pruning:
            full_machine_advances.append(machine.index)
        return advance(self, rec, machine, now)

    pet = build_transcoding_pet(rng=2019)
    heuristic = Watched(make_heuristic(request.param, num_task_types=pet.num_task_types))
    telemetry = Telemetry()
    state_module.chain_step = make_recorder("state")
    mapping_module.chain_step = make_recorder("virtual")
    SystemState._advance = recording_advance
    try:
        with use_telemetry(telemetry):
            result = HCSimulator(pet, heuristic, rng=2021).run(load_trace(REFERENCE_TRACE))
    finally:
        state_module.chain_step = chain_step
        mapping_module.chain_step = chain_step
        SystemState._advance = advance
    return request.param, heuristic, telemetry.counters, steps, full_machine_advances, result


def test_no_chain_step_is_executed_twice(watched_run):
    _, _, counters, steps, _, _ = watched_run
    by_identity = {(id(pet), id(prev), deadline) for _, pet, prev, deadline in steps}
    assert len(by_identity) == len(steps)
    in_state = sum(1 for where, *_ in steps if where == "state")
    assert counters["state.chain_steps"] == in_state


def test_virtual_steps_are_adopted_not_recomputed(watched_run):
    _, _, counters, steps, _, result = watched_run
    virtual = sum(1 for where, *_ in steps if where == "virtual")
    adopted = counters["state.chain_steps_adopted"]
    assert virtual == result.counters.assignments
    # The rest were never needed again: the task started at once on an idle
    # machine (its chain is then based on the executing anchor), or filled
    # the queue and was not read before the head left.
    assert 0 < adopted <= virtual


def test_full_machines_are_not_advanced_unless_pruned(watched_run):
    _, _, _, _, full_machine_advances, _ = watched_run
    assert full_machine_advances == []


def test_only_scored_machines_are_resolved(watched_run):
    name, heuristic, counters, _, _, result = watched_run
    resolved = counters["state.availability_resolved"]
    eager = result.counters.mapping_events * 8
    assert resolved < eager
    if name == "MM":
        assert resolved == heuristic.scorable_machines
    else:
        # The pruner's post-drop availabilities stand in for some reads.
        assert resolved <= heuristic.scorable_machines


# ----------------------------------------------------------------------
# Phase-1 scoring across mapping events (oversubscribed regime)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oversub_fills(oversub_inputs):
    """PAMF on the bench's ``trial-oversub`` inputs (seed 2019), every fill watched.

    Per initial fill: how many triples the previous table held were handed
    to the kernel again, and how many pairs the fill carried over.  (Both
    tables are alive while they are compared, so ``id`` is a sound key.)
    """
    fills: list[tuple[int, int]] = []
    scored: list[tuple] = []
    init, score = ScoreTable.__init__, ScoreTable._score

    def recording_score(self, rows, columns, availabilities):
        tasks = self.tasks if rows is None else [self.tasks[row] for row in rows.tolist()]
        scored.extend(
            (task.task_id, j, id(a))
            for task in tasks
            for j, a in zip(columns.tolist(), availabilities)
        )
        return score(self, rows, columns, availabilities)

    def recording_init(self, context, virtual, tasks, previous=None):
        held = set()
        if previous is not None:
            held = {
                (task.task_id, j, id(a))
                for task in previous.tasks
                for j, a in enumerate(previous._scored_against)
                if a is not None
            }
        del scored[:]
        init(self, context, virtual, tasks, previous=previous)
        fills.append((len(held.intersection(scored)), self.pairs_reused))

    pet, trace = oversub_inputs
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    telemetry = Telemetry()
    ScoreTable.__init__, ScoreTable._score = recording_init, recording_score
    try:
        with use_telemetry(telemetry):
            HCSimulator(pet, heuristic, rng=2019).run(trace)
    finally:
        ScoreTable.__init__, ScoreTable._score = init, score
    return fills, telemetry.counters


def test_no_held_score_reaches_the_kernel_again(oversub_fills):
    fills, _ = oversub_fills
    rescored_whole = [again for again, reused in fills if again]
    # Only a fill too small to carry repeats anything: it reuses nothing and
    # what it repeats is less than the size rule's bound.
    assert all(reused == 0 for again, reused in fills if again)
    assert all(again < heuristics_base._MIN_CARRIED_PAIRS for again in rescored_whole)
    assert sum(reused for _, reused in fills) > 5 * sum(rescored_whole)


def test_oversubscribed_trial_scores_a_fraction_of_the_grid(oversub_fills):
    fills, counters = oversub_fills
    assert counters["score_table.fills"] == len(fills) == 808
    # 209,962 when every fill started from scratch; exact for a seed.
    assert counters["score_table.pairs_scored"] <= 45_000
    assert counters["score_table.pairs_reused"] == sum(reused for _, reused in fills)
    assert counters["score_table.pairs_reused"] > 3 * counters["score_table.pairs_scored"]
