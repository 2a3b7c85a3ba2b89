"""Work counts on the reference trace: same decisions, less work to reach them.

``test_decision_digests.py`` pins that demand-driven availability takes the
same decisions; this module pins that it does *less* to reach them, using
the ``state.*`` / ``score_table.*`` counters the program publishes:

* no chain step — one (PET entry, predecessor PMF object, deadline) triple
  — is ever executed twice, by the live state, the mapper's virtual queue
  and the pruner's post-drop walk taken together.  (By object, not by
  value: a chain rebuilt from a new base may legitimately repeat values —
  an evicted head leaves the machine at exactly the time its chain
  predicted, a task dropped at its deadline had passed its predecessor's
  PMF through unchanged.)  In particular the pruner's dropping test reads
  the success probability and the completion PMF the chain step left
  behind: it convolves only behind a task it actually drops, and what it
  computes there the state adopts;
* a machine without a free slot is never advanced by a mapping event that
  does not prune it;
* a mapper without a pruner resolves exactly the machines it scores.

The same for phase-1 scoring on the oversubscribed regime (the bench's
``trial-oversub`` inputs, seed 2019), with the exact counts for that seed:
a (task, machine, availability object) triple the run's ``ScoreTable``
already holds never reaches the scoring kernel again; every fill and every
rescore is at most *one* kernel call (826 calls, 22,129 pairs); the state
computes 930 chain steps and adopts 298; Eq. 6 is evaluated for at most
60 queued tasks (1,180 before the pruner kept tasks above the highest
threshold Eq. 7 can give without one); an engaged pruning walk syncs each
machine it reads once; and phase 2, which picks on the table's arrays,
builds no ``CandidatePair`` object at all.

And the work counts of the bench's two load-1.15 trials (``trial-event``,
per-event mapping; ``trial-batched``, 120-unit rounds; seed 2019), exactly:
mapping events, fills, state queries, scoring calls, chain steps (at every
site, and in the state), assignments and deferrals.  A change that moves
one of them moves the work the bench measures.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.core.pmf import DiscretePMF
from repro.heuristics import base as heuristics_base
from repro.heuristics.base import CandidatePair, ScoreTable
from repro.heuristics.registry import make_heuristic
from repro.obs import Telemetry, use_telemetry
from repro.pet.builders import build_spec_pet, build_transcoding_pet
from repro.pruning import pruner as pruner_module
from repro.simulator import mapping as mapping_module
from repro.simulator import state as state_module
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.state import SystemState
from repro.simulator.task import Task
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace
from repro.workload.spec import TaskSpec
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


STEP_SITES = {"state": state_module, "virtual": mapping_module, "pruner": pruner_module}


def record_steps(steps: list[tuple]):
    """Patch ``completion_step`` at every site that runs chain steps; returns the undo."""
    completion_step = state_module.completion_step

    def make_recorder(where: str):
        def recording_step(pet, prev, deadline, policy, max_impulses=None):
            # Operands are kept, so their ``id`` cannot be recycled.
            steps.append((where, pet, prev, int(deadline)))
            return completion_step(pet, prev, deadline, policy, max_impulses)

        return recording_step

    for where, module in STEP_SITES.items():
        assert module.completion_step is completion_step
        module.completion_step = make_recorder(where)

    def undo() -> None:
        for module in STEP_SITES.values():
            module.completion_step = completion_step

    return undo


def assert_no_step_ran_twice(steps: list[tuple]) -> None:
    by_identity = {(id(pet), id(prev), deadline) for _, pet, prev, deadline in steps}
    assert len(by_identity) == len(steps)


@pytest.fixture(scope="module", params=["MM", "PAMF"])
def watched_run(request):
    steps: list[tuple] = []
    full_machine_advances: list[int] = []
    advance = SystemState._advance

    def recording_advance(self, rec, machine, now):
        if not machine.has_free_slot and not heuristic.pruning:
            full_machine_advances.append(machine.index)
        return advance(self, rec, machine, now)

    pet = build_transcoding_pet(rng=2019)
    heuristic = Watched(make_heuristic(request.param, num_task_types=pet.num_task_types))
    telemetry = Telemetry()
    undo = record_steps(steps)
    SystemState._advance = recording_advance
    try:
        with use_telemetry(telemetry):
            result = HCSimulator(pet, heuristic, rng=2021).run(load_trace(REFERENCE_TRACE))
    finally:
        undo()
        SystemState._advance = advance
    return request.param, heuristic, telemetry.counters, steps, full_machine_advances, result


def test_no_chain_step_is_executed_twice(watched_run):
    _, _, counters, steps, _, _ = watched_run
    assert_no_step_ran_twice(steps)
    in_state = sum(1 for where, *_ in steps if where == "state")
    assert counters["state.chain_steps"] == in_state


def test_virtual_steps_are_adopted_not_recomputed(watched_run):
    _, _, counters, steps, _, result = watched_run
    virtual = sum(1 for where, *_ in steps if where == "virtual")
    pruner = sum(1 for where, *_ in steps if where == "pruner")
    adopted = counters["state.chain_steps_adopted"]
    assert virtual == result.counters.assignments
    # The rest were never needed again: the task started at once on an idle
    # machine (its chain is then based on the executing anchor), or filled
    # the queue and was not read before the head left.
    assert 0 < adopted <= virtual + pruner


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
def scoring_calls(telemetry: Telemetry) -> int:
    """Calls of the scoring kernel: one ``kernel.*`` span each (timed even past the span cap)."""
    return sum(h.count for name, h in telemetry.timings.items() if name.startswith("kernel."))


@pytest.fixture(scope="module")
def oversub_run(oversub_inputs):
    """PAMF on the bench's ``trial-oversub`` inputs (seed 2019), every fill watched.

    Per fill: how many (task, machine, availability object) triples the
    table held when the fill began were handed to the kernel again, and how
    many pairs the fill carried over.  (The held objects are kept alive
    until the comparison, so ``id`` is a sound key.)  Also every chain
    step (as in ``watched_run``), every scoring-op call, every Eq. 6
    skewness, the machines each engaged pruning walk synced and every
    ``CandidatePair`` built.
    """
    fills: list[tuple[int, int]] = []
    scored: list[tuple] = []
    steps: list[tuple] = []
    built: list[int] = []
    skewnesses: list[int] = []
    walks: list[list[int]] = []
    fill, score = ScoreTable.fill, ScoreTable._score
    skewness, sync = DiscretePMF.skewness, SystemState._sync

    def recording_score(self, rows, columns):
        scored.extend(
            (id(self.tasks[row]), column, id(self._scored_against[column]))
            for row, column in zip(rows.tolist(), columns.tolist())
        )
        return score(self, rows, columns)

    def recording_fill(self, context, virtual):
        held_objects = []
        if self._cdf_table is not None:
            live = [self.tasks[slot] for slot in range(self.n) if self.live[slot]]
            columns = [(j, a) for j, a in enumerate(self._scored_against) if a is not None]
            held_objects = [(task, j, a) for task in live for j, a in columns]
        held = {(id(task), j, id(a)) for task, j, a in held_objects}
        del scored[:]
        fill(self, context, virtual)
        fills.append((len(held.intersection(scored)), self.pairs_reused))

    def counting_skewness(self):
        skewnesses.append(1)
        return skewness(self)

    def recording_sync(self, machine_index, now):
        if walks and walks[-1] is not None:
            walks[-1].append(machine_index)
        return sync(self, machine_index, now)

    class CountedPair(CandidatePair):
        def __init__(self, *args, **kwargs) -> None:
            built.append(1)
            super().__init__(*args, **kwargs)

    pet, trace = oversub_inputs
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    select = heuristic.pruner.select_queue_drops

    def watched_select(context):
        walks.append([])
        try:
            return select(context)
        finally:
            walks.append(None)

    heuristic.pruner.select_queue_drops = watched_select
    telemetry = Telemetry()
    undo = record_steps(steps)
    ScoreTable.fill, ScoreTable._score = recording_fill, recording_score
    DiscretePMF.skewness, SystemState._sync = counting_skewness, recording_sync
    heuristics_base.CandidatePair = CountedPair
    try:
        with use_telemetry(telemetry):
            result = HCSimulator(pet, heuristic, rng=2019).run(trace)
    finally:
        undo()
        ScoreTable.fill, ScoreTable._score = fill, score
        DiscretePMF.skewness, SystemState._sync = skewness, sync
        heuristics_base.CandidatePair = CandidatePair
    return {
        "fills": fills,
        "counters": telemetry.counters,
        "steps": steps,
        "pairs_built": len(built),
        "scoring_calls": scoring_calls(telemetry),
        "skewnesses": len(skewnesses),
        "walks": [walk for walk in walks if walk is not None],
        "result": result,
    }


def test_no_held_score_reaches_the_kernel_again(oversub_run):
    fills = oversub_run["fills"]
    assert all(again == 0 for again, _ in fills)
    assert sum(reused for _, reused in fills) > 100_000


def test_oversubscribed_trial_scores_a_fraction_of_the_grid(oversub_run):
    fills, counters = oversub_run["fills"], oversub_run["counters"]
    assert counters["score_table.fills"] == len(fills) == 808
    # 209,962 when every fill started from scratch, 30,998 while fills under
    # 32 carried pairs were still scored whole, 30,374 (179,588 reused) while
    # a head starting at once re-walked its machine's chain and so replaced
    # the availability objects the table is keyed by; exact for a seed.
    assert counters["score_table.pairs_scored"] == 22_129
    assert counters["score_table.pairs_reused"] == sum(reused for _, reused in fills) == 187_833


def test_a_fill_or_rescore_is_at_most_one_kernel_call(oversub_run):
    counters = oversub_run["counters"]
    # 1,176 calls while a carried fill with new rows *and* changed columns
    # took two rectangles; a fill that carries everything takes none.
    assert oversub_run["scoring_calls"] == 826
    assert 826 <= counters["score_table.fills"] + counters["score_table.rescores"]


def test_the_pruner_convolves_only_behind_a_drop(oversub_run):
    counters, steps, result = oversub_run["counters"], oversub_run["steps"], oversub_run["result"]
    assert_no_step_ran_twice(steps)
    by_site = {where: sum(1 for site, *_ in steps if site == where) for where in STEP_SITES}
    # 1,573 computed and 276 adopted while a head that starts at the instant
    # its chain was walked had the whole chain re-walked from its anchor.
    assert by_site["state"] == counters["state.chain_steps"] == 930
    assert counters["state.chain_steps_adopted"] == 298
    assert by_site["virtual"] == result.counters.assignments
    # 955 second convolutions of steps the chain already held, before.
    assert 0 < by_site["pruner"] <= 6 * result.counters.proactive_drops


def test_eq7_skewness_only_where_it_decides(oversub_run):
    # 1,180 when every examined task's threshold was computed.
    assert 0 < oversub_run["skewnesses"] <= 60


def test_an_engaged_pruning_walk_syncs_each_machine_once(oversub_run):
    walks = oversub_run["walks"]
    assert len(walks) > 100
    for walk in walks:
        assert walk and max(Counter(walk).values()) == 1


def test_candidate_pairs_are_built_for_phase_two_only(oversub_run):
    result = oversub_run["result"]
    # One object per deferral (26,928) and more, before; then one per
    # candidate still standing when phase 2 chose (at least one per
    # assignment); none since phase 2 sorts key arrays.
    assert result.counters.deferrals == 26_928
    assert oversub_run["pairs_built"] == 0


def test_an_adopted_step_keeps_its_by_products(small_gamma_pet):
    """``extend_availability`` -> ``offer_step`` -> ``_advance`` -> ``prune_prefix_meta``."""
    machine = Machine(0, small_gamma_pet.machine_names[0], queue_capacity=4)
    state = SystemState([machine], small_gamma_pet, max_impulses=8)
    context = MappingContext(
        now=5, batch=(), machines=(machine,), pet=small_gamma_pet, max_impulses=8, state=state
    )
    steps: list[tuple] = []
    undo = record_steps(steps)
    try:
        first, second = (
            Task(TaskSpec(arrival=5, task_id=task_id, task_type=task_id, deadline=deadline))
            for task_id, deadline in ((1, 60), (2, 90))
        )
        machine.enqueue(first, 5)
        state.notify_enqueue(0, first)
        after = context.extend_availability(0, second, state.availability(0, 5))
        machine.enqueue(second, 5)
        state.notify_enqueue(0, second)
        meta = state.prune_prefix_meta(0, 5)
    finally:
        undo()
    # The state's own step for the first task, the mapper's for the second,
    # and no third: the second was adopted with what came with it.
    assert [where for where, *_ in steps] == ["state", "virtual"]
    offered = state._records[0].steps[1]
    assert state.chain(0, 5)[1] is offered.availability is after
    assert meta[1] == (offered.success_probability, offered.completion, offered.availability)



# ----------------------------------------------------------------------
# The bench's load-1.15 trials: every work count, exactly
# ----------------------------------------------------------------------
#: ``(num_tasks, batch_window)`` of the bench's ``bench/trial.py`` shapes.
TRIAL_SHAPES = {"trial-event": (1000, 0), "trial-batched": (2400, 120)}

#: mapping events, fills, state queries, scoring calls, chain steps (all
#: sites / in the state), assignments, deferrals -- at seed 2019.
TRIAL_COUNTS = {
    "trial-event": (1_855, 1_360, 10_880, 1_364, 2_156, 1_184, 972, 1_533),
    "trial-batched": (237, 236, 1_747, 2_272, 2_379, 120, 2_258, 389),
}

STATE_QUERIES = ("availability", "availability_batch", "chain", "prune_prefix_meta")


class CountedState:
    """``context.state`` stand-in counting the mapper's and pruner's queries."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.queries = 0
        for name in STATE_QUERIES:
            setattr(self, name, self._counted(getattr(inner, name)))

    def _counted(self, query):
        def counted(*args, **kwargs):
            self.queries += 1
            return query(*args, **kwargs)

        return counted

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class CountedMapper:
    """Delegating mapper counting mapping events and the state queries they make."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.mapping_events = 0
        self.state: CountedState | None = None

    def reset(self) -> None:
        self.inner.reset()

    def map_tasks(self, context):
        if self.state is None or self.state.inner is not context.state:
            self.state = CountedState(context.state)
        context.state = self.state
        self.mapping_events += 1
        return self.inner.map_tasks(context)


@pytest.fixture(scope="module", params=sorted(TRIAL_SHAPES))
def trial_counts(request):
    num_tasks, batch_window = TRIAL_SHAPES[request.param]
    pet = build_spec_pet(rng=2019)
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=num_tasks, load_factor=1.15), rng=2019, pet=pet
    )
    mapper = CountedMapper(make_heuristic("PAMF", num_task_types=pet.num_task_types))
    steps: list[tuple] = []
    telemetry = Telemetry()
    undo = record_steps(steps)
    try:
        with use_telemetry(telemetry):
            result = HCSimulator(
                pet, mapper, config=SimulatorConfig(batch_window=batch_window), rng=2019
            ).run(trace)
    finally:
        undo()
    counters = telemetry.counters
    return request.param, (
        mapper.mapping_events,
        counters["score_table.fills"],
        mapper.state.queries,
        scoring_calls(telemetry),
        len(steps),
        counters["state.chain_steps"],
        result.counters.assignments,
        result.counters.deferrals,
    )


def test_trial_work_counts_are_pinned(trial_counts):
    workload, counts = trial_counts
    assert counts == TRIAL_COUNTS[workload]
