"""Tests for the persistent incremental ``SystemState`` availability engine.

Two layers of guarantees, both against the suite's from-scratch walk
(``scratch_chain`` in ``tests/conftest.py``):

* unit: incremental chain maintenance after every kind of queue mutation is
  bit-identical to the chain walked from scratch down the current queue;
* trial: at every mapping event of seeded fig4-scale simulations, every
  machine's state chain equals the scratch walk, and checking it changes
  no decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy
from repro.core.pmf import DiscretePMF
from repro.heuristics.registry import make_heuristic
from repro.obs import Telemetry, use_telemetry
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.state import SystemState
from repro.simulator.task import Task
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def pmf_equal(a: DiscretePMF, b: DiscretePMF) -> bool:
    """Bit-exact comparison (compacted, zero-mass PMFs compare equal)."""
    a, b = a.compact(), b.compact()
    if a.is_zero() and b.is_zero():
        return True
    return a.offset == b.offset and np.array_equal(a.probs, b.probs)


def same_chain(got, want) -> bool:
    return len(got) == len(want) and all(pmf_equal(a, b) for a, b in zip(got, want))


def scratch_of(scratch_chain, state: SystemState, j: int, now: int) -> tuple:
    """The scratch walk of the state's machine ``j`` on the state's settings."""
    return scratch_chain(
        state.machines[j],
        state.pet,
        now,
        policy=state.policy,
        max_impulses=state.max_impulses,
    )


def assert_matches_scratch(scratch_chain, state: SystemState, j: int, now: int) -> None:
    """Chain and availability of machine ``j`` equal the scratch walk, atol=0."""
    want = scratch_of(scratch_chain, state, j, now)
    assert same_chain(state.chain(j, now), want)
    assert pmf_equal(state.availability(j, now), want[-1] if want else DiscretePMF.point(now))


@pytest.fixture
def machines() -> list[Machine]:
    return [
        Machine(0, "fast-a", queue_capacity=4),
        Machine(1, "fast-b", queue_capacity=4),
    ]


class TestIncrementalMaintenance:
    def test_empty_machines_available_now(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        assert state.availability(0, 42).probability_at(42) == pytest.approx(1.0)
        batch = state.availability_batch(7)
        assert batch.n_pmfs == 2
        assert batch.row(0).probability_at(7) == pytest.approx(1.0)

    def test_enqueue_extends_chain_incrementally(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        for i, deadline in enumerate((200, 240, 280)):
            task = make_task(i, deadline=deadline)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
            assert_matches_scratch(scratch_chain, state, 0, 0)
        assert len(state.chain(0, 0)) == 3

    def test_start_reanchors_head(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        task = make_task(0, deadline=300)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        state.availability(0, 0)
        m0.start_next(now=5, actual_execution_time=6)
        state.notify_start(0)
        assert_matches_scratch(scratch_chain, state, 0, 5)

    def test_finish_drops_head_and_rebases(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        head, rest = make_task(0, deadline=300), make_task(1, deadline=400)
        for task in (head, rest):
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        m0.start_next(now=0, actual_execution_time=4)
        state.notify_start(0)
        state.availability(0, 0)
        m0.finish_executing(head, now=4)
        state.notify_finish(0, head)
        assert_matches_scratch(scratch_chain, state, 0, 4)
        assert len(state.chain(0, 4)) == 1

    def test_remove_recomputes_suffix_only(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        tasks = [make_task(i, deadline=200 + 40 * i) for i in range(4)]
        for task in tasks:
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        prefix = state.chain(0, 0)[:2]
        m0.remove_pending(tasks[2])
        state.notify_remove(0, tasks[2])
        assert_matches_scratch(scratch_chain, state, 0, 0)
        # The untouched prefix entries are reused, not recomputed.
        assert state.chain(0, 0)[0] is prefix[0]
        assert state.chain(0, 0)[1] is prefix[1]

    def test_unnotified_mutation_resyncs_defensively(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        task = make_task(0, deadline=200)
        m0.enqueue(task, now=0)  # no notification on purpose
        assert_matches_scratch(scratch_chain, state, 0, 0)

    def test_overdue_executing_head_reanchors_with_now(self, tiny_pet, machines, scratch_chain):
        """An executing task queried past its deadline: the EVICT collapse
        point ``max(deadline, now + 1)`` tracks the query time, so the
        chain must be re-anchored instead of served stale (it would
        otherwise diverge from the scratch walk)."""
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        task = make_task(0, task_type=2, deadline=10)  # gamma: long execution
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        m0.start_next(now=0, actual_execution_time=50)  # overruns the deadline
        state.notify_start(0)
        before = state.availability(0, 5)
        assert_matches_scratch(scratch_chain, state, 0, 5)
        after = state.availability(0, 12)
        assert_matches_scratch(scratch_chain, state, 0, 12)
        assert before.support()[1] == 10  # collapsed at the deadline
        assert after.support()[1] == 13  # collapse moved to max(10, 12 + 1)

    @pytest.mark.parametrize("policy", list(DroppingPolicy), ids=lambda p: p.value)
    def test_executing_head_chain_does_not_depend_on_now(
        self, tiny_pet, machines, scratch_chain, policy
    ):
        """Before its deadline, a chain whose head executes is served as
        walked at any later query time: no step is recomputed."""
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            state = SystemState(machines, tiny_pet, policy=policy)
        m0 = machines[0]
        for task in (make_task(0, task_type=2, deadline=40), make_task(1, deadline=300)):
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        m0.start_next(now=0, actual_execution_time=15)
        state.notify_start(0)
        walked = state.chain(0, 1)
        steps = telemetry.counters["state.chain_steps"]
        for now in (5, 13, 39):
            assert all(a is b for a, b in zip(state.chain(0, now), walked, strict=True))
            assert_matches_scratch(scratch_chain, state, 0, now)
        assert telemetry.counters["state.chain_steps"] == steps

    def test_idle_pending_chain_reanchors_with_now(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        task = make_task(0, deadline=300)
        m0.enqueue(task, now=0)
        state.notify_enqueue(0, task)
        at_zero = state.availability(0, 0)
        at_ten = state.availability(0, 10)
        assert_matches_scratch(scratch_chain, state, 0, 10)
        assert at_ten.mean() > at_zero.mean()

    def test_availability_excluding_reuses_prefix(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        tasks = [make_task(i, deadline=200 + 40 * i) for i in range(4)]
        for task in tasks:
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        got = state.availability_excluding(0, {tasks[2].task_id}, 0)
        m0.remove_pending(tasks[2])
        assert pmf_equal(got, scratch_chain(m0, tiny_pet, 0)[-1])

    def test_batch_rows_match_scalar_availability(self, tiny_pet, machines, scratch_chain):
        state = SystemState(machines, tiny_pet)
        for i, machine in enumerate(machines):
            task = make_task(i, task_type=i, deadline=250)
            machine.enqueue(task, now=0)
            state.notify_enqueue(machine.index, task)
        batch = state.availability_batch(0)
        for j, machine in enumerate(machines):
            assert pmf_equal(batch.row(j), scratch_chain(machine, tiny_pet, 0)[-1])

    def test_fresh_state_matches_scratch_walk(self, tiny_pet, machines, scratch_chain):
        """A state with history, a state with none and the scratch walk agree."""
        state = SystemState(machines, tiny_pet)
        m0 = machines[0]
        for i in range(3):
            task = make_task(i, deadline=200 + 30 * i)
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
            state.availability(0, 0)
        fresh = SystemState(machines, tiny_pet)
        want = scratch_chain(m0, tiny_pet, 0)
        assert same_chain(state.chain(0, 0), want)
        assert same_chain(fresh.chain(0, 0), want)


class TestStartAtWalkInstant:
    """A pending head that starts at the instant its idle machine's chain was
    walked keeps the chain: its step from ``point(now)`` was taken uncapped,
    so it already is the executing anchor.  Any other start re-walks."""

    def walked(self, tiny_pet, machines, *, now, head_deadline):
        """Gamma head (3 impulses, over the cap of 2) and one task behind it,
        walked at ``now`` under telemetry; the state, its chain, the counters."""
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            state = SystemState(machines, tiny_pet, max_impulses=2)
        m0 = machines[0]
        for task in (
            make_task(0, task_type=2, deadline=head_deadline),
            make_task(1, task_type=0, deadline=400),
        ):
            m0.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        chain = state.chain(0, now)
        return state, chain, telemetry.counters

    def test_start_keeps_the_chain_walked_at_its_instant(self, tiny_pet, machines, scratch_chain):
        state, before, counters = self.walked(tiny_pet, machines, now=7, head_deadline=300)
        steps = counters["state.chain_steps"]
        m0 = machines[0]
        m0.start_next(now=7, actual_execution_time=20)
        state.notify_start(0)
        after = state.chain(0, 7)
        assert counters["state.chain_steps"] == steps
        assert after[0] is before[0] and after[1] is before[1]
        assert pmf_equal(after[0], m0.executing_anchor_pmf(tiny_pet, 7))
        assert_matches_scratch(scratch_chain, state, 0, 7)
        # The executing head's pruning inputs are its raw completion PMF.
        raw = m0.executing_completion_pmf(tiny_pet, 7)
        prob, completion, availability = state.prune_prefix_meta(0, 7)[0]
        assert prob == min(1.0, raw.cdf(300)) and pmf_equal(completion, raw)
        assert availability is after[0]
        assert_matches_scratch(scratch_chain, state, 0, 11)

    @pytest.mark.parametrize(
        "start, head_deadline",
        [
            (9, 300),  # a later start instant
            (7, 5),  # the head's deadline has passed
        ],
        ids=["later-start", "deadline-passed"],
    )
    def test_any_other_start_rewalks(
        self, tiny_pet, machines, scratch_chain, start, head_deadline
    ):
        state, before, counters = self.walked(
            tiny_pet, machines, now=7, head_deadline=head_deadline
        )
        steps = counters["state.chain_steps"]
        machines[0].start_next(now=start, actual_execution_time=20)
        state.notify_start(0)
        after = state.chain(0, start)
        assert counters["state.chain_steps"] == steps + 1
        assert after[0] is not before[0]
        assert_matches_scratch(scratch_chain, state, 0, start)


class TestMappingContextViews:
    def test_context_serves_live_state(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        task = make_task(0, deadline=250)
        machines[0].enqueue(task, now=0)
        state.notify_enqueue(0, task)
        context = MappingContext(
            now=0,
            batch=(),
            machines=tuple(machines),
            pet=tiny_pet,
            policy=DroppingPolicy.EVICT,
            state=state,
        )
        assert context.machine_availability(0) is state.availability(0, 0)

    def test_stateless_context_builds_its_own_state(self, tiny_pet, machines):
        state = SystemState(machines, tiny_pet)
        task = make_task(0, deadline=250)
        machines[0].enqueue(task, now=0)
        state.notify_enqueue(0, task)
        common = dict(
            now=0,
            batch=(),
            machines=tuple(machines),
            pet=tiny_pet,
            policy=DroppingPolicy.EVICT,
        )
        with_state = MappingContext(state=state, **common)
        without_state = MappingContext(max_impulses=16, **common)
        built = without_state.state
        assert built is not state and built.machines == machines and built.pet is tiny_pet
        assert built.max_impulses == 16
        without_state = MappingContext(**common)
        for j in range(len(machines)):
            assert pmf_equal(
                with_state.machine_availability(j), without_state.machine_availability(j)
            )


    @pytest.mark.parametrize("policy", list(DroppingPolicy))
    def test_stateless_context_walks_on_its_own_settings(
        self, tiny_pet, machines, scratch_chain, policy
    ):
        m0 = machines[0]
        for i in range(3):
            m0.enqueue(make_task(i, task_type=i, deadline=8 + 6 * i), now=0)
        m0.start_next(now=0, actual_execution_time=20)
        settings = dict(policy=policy, max_impulses=2)
        context = MappingContext(
            now=4, batch=(), machines=tuple(machines), pet=tiny_pet, **settings
        )
        for j, machine in enumerate(machines):
            want = scratch_chain(machine, tiny_pet, 4, **settings)
            assert same_chain(context.state.chain(j, 4), want)
            assert pmf_equal(
                context.machine_availability(j), want[-1] if want else DiscretePMF.point(4)
            )


def _signature(result):
    return (
        tuple(
            (t.task_id, t.status.value, t.machine, t.exec_start, t.exec_end, t.dropped_at)
            for t in result.tasks
        ),
        result.counters.as_dict(),
        result.machine_busy_times,
        result.end_time,
    )


class ScratchCheckingHeuristic:
    """Wraps a heuristic; at every mapping event, before it maps, asserts
    every machine's state chain equals the scratch walk."""

    def __init__(self, inner, scratch_chain) -> None:
        self.inner = inner
        self.name = inner.name
        self.scratch_chain = scratch_chain
        self.checked_events = 0

    def reset(self) -> None:
        self.inner.reset()

    def map_tasks(self, context):
        for j in range(len(context.machines)):
            want = scratch_of(self.scratch_chain, context.state, j, context.now)
            assert same_chain(context.state.chain(j, context.now), want)
        self.checked_events += 1
        return self.inner.map_tasks(context)


def run_checked(pet, trace, heuristic_name, config, rng, scratch_chain):
    """The trial plain and with every event checked; both results, and the count."""
    results = []
    for wrap in (False, True):
        heuristic = make_heuristic(heuristic_name, num_task_types=pet.num_task_types)
        if wrap:
            heuristic = ScratchCheckingHeuristic(heuristic, scratch_chain)
        results.append(HCSimulator(pet, heuristic, config=config, rng=rng).run(trace))
    return results, heuristic.checked_events


@pytest.mark.parametrize("batch_window", [0, 25])
@pytest.mark.parametrize("heuristic_name", ["MM", "PAM", "PAMF"])
def test_full_trial_state_matches_scratch_walk(
    spec_pet_small, heuristic_name, batch_window, scratch_chain
):
    """Seeded fig4-scale trials: the state equals the scratch walk at every event.

    Checking reads every machine's chain at every mapping event, which a
    plain run does not; the decisions and metrics must be bit-identical to
    the plain run all the same.  Runs in both engine modes: per-event
    (``window=0``) and batched scheduling rounds.
    """
    trace = generate_workload(
        WorkloadConfig(num_tasks=250, time_span=1000, beta=1.2), spec_pet_small, rng=5
    )
    (plain, checked), events = run_checked(
        spec_pet_small,
        trace,
        heuristic_name,
        SimulatorConfig(batch_window=batch_window),
        17,
        scratch_chain,
    )
    assert events == checked.counters.mapping_events > 0
    assert _signature(plain) == _signature(checked)
    assert plain.robustness_percent(warmup=20, cooldown=20) == checked.robustness_percent(
        warmup=20, cooldown=20
    )


def test_full_trial_pending_policy_matches_scratch_walk(spec_pet_small, scratch_chain):
    """The PENDING dropping regime flows through the same check."""
    trace = generate_workload(
        WorkloadConfig(num_tasks=150, time_span=800, beta=1.5), spec_pet_small, rng=9
    )
    (plain, checked), events = run_checked(
        spec_pet_small,
        trace,
        "PAM",
        SimulatorConfig(evict_executing_at_deadline=False),
        3,
        scratch_chain,
    )
    assert events == checked.counters.mapping_events > 0
    assert _signature(plain) == _signature(checked)


@pytest.fixture(scope="module")
def spec_pet_small():
    from repro.pet.builders import build_spec_pet

    return build_spec_pet(rng=1, n_samples=120)
