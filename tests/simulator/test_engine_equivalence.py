"""Differential property harness: heap engine vs the reference loop.

:class:`~repro.simulator.engine.HCSimulator` runs a single global event
heap with optional batched scheduling rounds.  At ``batch_window=0`` it
must decide exactly as the per-event reference loop of
``tests/reference/loop.py``, which drives the same machines, state and
mappers from a sorted event list:

* **Hypothesis differential tests** — random traces replayed through both
  loops, with eviction at the deadline on and off, must produce identical
  *decision sequences* (every observer callback, in order) and identical
  metrics, with atol=0;
* the heap engine is driven two ways: ``run``, which advances the clock
  to each arrival before injecting it (the one arrival path the serving
  layer shares), and an eager replay that injects the whole trace before
  the first event — both must match the reference loop;
* the **660-task reference trace** is pinned for all six mappers;
* under **batched rounds** (``batch_window > 0``) the engine keeps its
  documented contracts: streaming equals batch replay, observer
  ``on_assigned`` callbacks of one round surface in ascending task-id
  order, a terminal callback never precedes its task's assignment, and a
  ``ROUND`` marker bounds mapping latency even across quiet stretches;
* **one arrival path**: the engine holds only the tasks in flight, ``run``
  takes any arrival-sorted iterable and refuses a spec that arrives before
  an instant already processed, and the decisions made before task k
  arrives are those of the trace truncated before k;
* **relabelling**: renaming task ids by a strictly increasing map changes
  nothing in a run's outcomes and counters but the ids;
* **no pruning ahead of a deadline**: PAM and PAMF with both thresholds at
  0 and dropping off defer nothing, drop nothing proactively, and drop a
  task only at or after its deadline.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.heuristics import make_heuristic
from repro.pet.builders import build_spec_pet, build_transcoding_pet
from repro.pruning.thresholds import PruningThresholds
from repro.serve.service import SchedulerCore
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.simulator.events import EventKind
from repro.simulator.metrics import NONE, OUTCOME_FIELDS
from repro.simulator.task import DropReason
from repro.workload.generator import WorkloadConfig, WorkloadTrace
from repro.workload.scale import SCALE_TRACE_SEED, scale_trace
from repro.workload.spec import TaskSpec
from repro.workload.traces import load_trace

from reference.loop import ReferenceLoop

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)

HEURISTICS = ["MM", "PAM", "PAMF"]
ALL_HEURISTICS = ["MM", "MSD", "MMU", "MOC", "PAM", "PAMF"]


class RecordingObserver:
    """Records every engine callback, in order, as comparable tuples."""

    def __init__(self) -> None:
        self.log: list[tuple] = []

    def on_assigned(self, task, machine_index, now):
        self.log.append(("assigned", task.task_id, machine_index, now))

    def on_terminal(self, task):
        self.log.append(
            ("terminal", task.task_id, task.status.value, task.on_time)
        )

    def on_mapping_event(self, now, decision):
        self.log.append(
            (
                "mapping",
                now,
                tuple((a.task_id, a.machine_index) for a in decision.assignments),
                tuple((d.task_id, d.machine_index) for d in decision.queue_drops),
                tuple(decision.deferrals),
            )
        )


def _signature(result):
    return (
        tuple(
            (
                t.task_id,
                t.status.value,
                t.machine,
                t.mapped_at,
                t.exec_start,
                t.exec_end,
                t.actual_execution_time,
                t.dropped_at,
                t.drop_reason,
            )
            for t in result.tasks
        ),
        result.counters.as_dict(),
        result.machine_busy_times,
        result.end_time,
    )


def _run_reference(pet, trace, *, heuristic="PAMF", seed=17, config=None):
    sim = ReferenceLoop(
        pet, make_heuristic(heuristic, num_task_types=pet.num_task_types), config=config, rng=seed
    )
    observer = RecordingObserver()
    sim.observer = observer
    return sim.run(trace), observer.log


def _run_heap(pet, trace, *, heuristic="PAMF", seed=17, config=None, streamed=False):
    sim = HCSimulator(
        pet,
        make_heuristic(heuristic, num_task_types=pet.num_task_types),
        config=config,
        rng=seed,
    )
    observer = RecordingObserver()
    sim.observer = observer
    if streamed:
        # ``run`` advances time to each arrival before injecting it, so
        # the engine steps mid-trace.
        return sim.run(trace), observer.log
    # Eager replay: the whole trace sits in the heap before the first event.
    sim.begin_stream()
    for spec in trace:
        sim.inject_task(spec)
    return sim.finish_stream(), observer.log


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def traces(draw, *, max_tasks: int = 20, num_types: int = 3) -> WorkloadTrace:
    """Short, bursty, tightly-deadlined traces over the tiny 2-machine PET.

    Deadlines are drawn tight enough that drops, evictions and deferrals
    all occur, which is where the two loops could plausibly diverge.
    """
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    specs = []
    for task_id in range(n):
        arrival = draw(st.integers(min_value=0, max_value=80))
        slack = draw(st.integers(min_value=1, max_value=60))
        task_type = draw(st.integers(min_value=0, max_value=num_types - 1))
        specs.append(
            TaskSpec(
                arrival=arrival,
                task_id=task_id,
                task_type=task_type,
                deadline=arrival + slack,
            )
        )
    specs.sort()
    config = WorkloadConfig(num_tasks=n, time_span=100)
    return WorkloadTrace(tuple(specs), config, num_task_types=num_types)


# ----------------------------------------------------------------------
# Differential: heap loop vs reference loop at batch_window=0
# ----------------------------------------------------------------------


class TestHeapMatchesReference:
    @given(trace=traces(), data=st.data(), evict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_replay_identical(self, tiny_pet, trace, data, evict):
        heuristic = data.draw(st.sampled_from(HEURISTICS))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        config = SimulatorConfig(evict_executing_at_deadline=evict)
        reference_result, reference_log = _run_reference(
            tiny_pet, trace, heuristic=heuristic, seed=seed, config=config
        )
        heap_result, heap_log = _run_heap(
            tiny_pet, trace, heuristic=heuristic, seed=seed, config=config
        )
        assert heap_log == reference_log
        assert _signature(heap_result) == _signature(reference_result)

    @given(trace=traces(), data=st.data(), evict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mid_trace_stream_injection_identical(self, tiny_pet, trace, data, evict):
        heuristic = data.draw(st.sampled_from(HEURISTICS))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        config = SimulatorConfig(evict_executing_at_deadline=evict)
        reference_result, reference_log = _run_reference(
            tiny_pet, trace, heuristic=heuristic, seed=seed, config=config
        )
        heap_result, heap_log = _run_heap(
            tiny_pet, trace, heuristic=heuristic, seed=seed, config=config, streamed=True
        )
        assert heap_log == reference_log
        assert _signature(heap_result) == _signature(reference_result)

    @given(trace=traces(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_explicit_window_zero_config_identical(self, tiny_pet, trace, seed):
        """``batch_window=0`` spelled out is the per-event protocol."""
        reference_result, reference_log = _run_reference(tiny_pet, trace, seed=seed)
        heap_result, heap_log = _run_heap(
            tiny_pet, trace, seed=seed, config=SimulatorConfig(batch_window=0)
        )
        assert heap_log == reference_log
        assert _signature(heap_result) == _signature(reference_result)

    @given(
        trace=traces(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window=st.sampled_from([1, 3, 7, 15]),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_streaming_equals_batched_replay(self, tiny_pet, trace, seed, window):
        """Rounds depend only on event times + window, not the driving mode."""
        config = SimulatorConfig(batch_window=window)
        replay_result, replay_log = _run_heap(tiny_pet, trace, seed=seed, config=config)
        stream_result, stream_log = _run_heap(
            tiny_pet, trace, seed=seed, config=config, streamed=True
        )
        assert stream_log == replay_log
        assert _signature(stream_result) == _signature(replay_result)


@pytest.mark.parametrize("heuristic", ALL_HEURISTICS)
def test_reference_trace_pinned_against_the_reference_loop(heuristic):
    """Acceptance gate: 660-task reference trace, heap vs reference loop, atol=0."""
    trace = load_trace(REFERENCE_TRACE)
    pet = build_transcoding_pet(rng=2019)
    reference_result, reference_log = _run_reference(pet, trace, heuristic=heuristic, seed=2021)
    heap_result, heap_log = _run_heap(pet, trace, heuristic=heuristic, seed=2021)
    assert heap_log == reference_log
    assert _signature(heap_result) == _signature(reference_result)


def test_reference_loop_refuses_batched_rounds(tiny_pet):
    heuristic = make_heuristic("MM", num_task_types=tiny_pet.num_task_types)
    with pytest.raises(ValueError, match="maps at every event"):
        ReferenceLoop(tiny_pet, heuristic, config=SimulatorConfig(batch_window=4))


# ----------------------------------------------------------------------
# Batched-rounds contracts (observer ordering, round latency, markers)
# ----------------------------------------------------------------------


def _burst_trace(num_tasks: int = 18, *, spread: int = 40, slack: int = 120) -> WorkloadTrace:
    """A dense burst over the tiny PET: several arrivals per round window."""
    specs = tuple(
        TaskSpec(
            arrival=1 + (i * spread) // num_tasks,
            task_id=i,
            task_type=i % 3,
            deadline=1 + (i * spread) // num_tasks + slack,
        )
        for i in range(num_tasks)
    )
    return WorkloadTrace(specs, WorkloadConfig(num_tasks=num_tasks, time_span=spread + 1))


class TestBatchedRoundContracts:
    @pytest.mark.parametrize("window", [5, 10, 25])
    def test_round_assignments_surface_in_task_id_order(self, tiny_pet, window):
        _, log = _run_heap(
            tiny_pet,
            _burst_trace(),
            seed=3,
            config=SimulatorConfig(batch_window=window),
        )
        rounds_with_assignments = 0
        current_round: list[int] = []
        for entry in log:
            if entry[0] == "assigned":
                current_round.append(entry[1])
            else:
                # Any non-assignment callback ends the contiguous run of
                # one round's assignment callbacks.
                if len(current_round) > 1:
                    rounds_with_assignments += 1
                    assert current_round == sorted(current_round)
                current_round = []
        assert rounds_with_assignments >= 1, "burst should batch multiple assignments"

    @pytest.mark.parametrize("window", [0, 7])
    def test_terminal_never_precedes_assignment(self, tiny_pet, window):
        result, log = _run_heap(
            tiny_pet,
            _burst_trace(),
            seed=3,
            config=SimulatorConfig(batch_window=window),
        )
        assigned_at: dict[int, int] = {}
        for index, entry in enumerate(log):
            if entry[0] == "assigned":
                assigned_at[entry[1]] = index
            elif entry[0] == "terminal":
                task_id = entry[1]
                if task_id in assigned_at:
                    assert assigned_at[task_id] < index
        # Every task that reached a machine must have surfaced via on_assigned.
        mapped = {t.task_id for t in result.tasks if t.machine is not None}
        assert mapped == set(assigned_at)

    def test_round_marker_bounds_mapping_latency(self, tiny_pet):
        """A mid-round arrival with no later events still maps at the round
        boundary: the ROUND marker forces the step."""
        window = 10
        specs = (
            TaskSpec(arrival=0, task_id=0, task_type=0, deadline=200),
            # Arrives mid-round; nothing else happens until far later, so
            # only the ROUND marker at t=10 can trigger its mapping.
            TaskSpec(arrival=3, task_id=1, task_type=1, deadline=200),
        )
        trace = WorkloadTrace(specs, WorkloadConfig(num_tasks=2, time_span=4))
        sim = HCSimulator(
            tiny_pet,
            make_heuristic("MM", num_task_types=tiny_pet.num_task_types),
            config=SimulatorConfig(batch_window=window),
            rng=1,
        )
        result = sim.run(trace)
        tasks = {t.task_id: t for t in result.tasks}
        assert tasks[0].mapped_at == 0  # first step fires the first round
        assert tasks[1].mapped_at == window

    def test_round_markers_do_not_leak_into_pending_events(self, tiny_pet):
        sim = HCSimulator(
            tiny_pet,
            make_heuristic("MM", num_task_types=tiny_pet.num_task_types),
            config=SimulatorConfig(batch_window=10),
            rng=1,
        )
        sim.begin_stream()
        sim.inject_task(TaskSpec(arrival=0, task_id=0, task_type=0, deadline=200))
        sim.inject_task(TaskSpec(arrival=3, task_id=1, task_type=1, deadline=200))
        sim.advance_until(4)
        # Task 1 is parked until the round fires: one ROUND marker sits in
        # the heap beside the executing task's FINISH, and no arrival is
        # left there for a marker to stand in for.
        kinds = [EventKind(entry[1]) for entry in sim.events._heap]
        assert kinds.count(EventKind.ROUND) == 1
        assert kinds.count(EventKind.FINISH) == len(kinds) - 1
        sim.finish_stream()
        assert not sim.events._heap

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="batch_window"):
            SimulatorConfig(batch_window=-1)


# ----------------------------------------------------------------------
# One arrival path: ``run`` feeds the engine the way the service does
# ----------------------------------------------------------------------


class LiveTaskObserver:
    """Checks the engine's task table against the arrivals at every mapping event."""

    def __init__(self, sim: HCSimulator, arrivals: list[int]) -> None:
        self.sim = sim
        self.arrivals = arrivals
        self.terminal = 0
        self.live: list[int] = []

    def on_assigned(self, task, machine_index, now):
        pass

    def on_terminal(self, task):
        self.terminal += 1

    def on_mapping_event(self, now, decision):
        in_flight = bisect_right(self.arrivals, now) - self.terminal
        assert len(self.sim.tasks) <= in_flight
        self.live.append(len(self.sim.tasks))


def _log_before(log: list[tuple], instant: int) -> list[tuple]:
    """The callbacks through the last mapping event before ``instant``."""
    ends = [i for i, entry in enumerate(log) if entry[0] == "mapping" and entry[1] < instant]
    return log[: ends[-1] + 1] if ends else []


class TestOneArrivalPath:
    @pytest.mark.parametrize("window", [0, 120])
    def test_engine_holds_only_the_tasks_in_flight(self, window):
        num_tasks = 2_400
        pet = build_spec_pet(rng=SCALE_TRACE_SEED)
        trace = scale_trace(num_tasks=num_tasks)
        sim = HCSimulator(
            pet,
            make_heuristic("PAMF", num_task_types=pet.num_task_types),
            config=SimulatorConfig(batch_window=window),
            rng=SCALE_TRACE_SEED,
        )
        observer = sim.observer = LiveTaskObserver(sim, [spec.arrival for spec in trace])
        result = sim.run(trace)
        assert result.num_tasks == observer.terminal == num_tasks
        assert observer.live[0] < num_tasks // 100
        assert max(observer.live) < num_tasks // 10

    def test_arrival_before_a_processed_instant_is_refused(self, tiny_pet):
        specs = [
            TaskSpec(arrival=0, task_id=0, task_type=0, deadline=50),
            TaskSpec(arrival=20, task_id=1, task_type=1, deadline=70),
            TaskSpec(arrival=5, task_id=2, task_type=2, deadline=90),
        ]
        sim = HCSimulator(
            tiny_pet, make_heuristic("MM", num_task_types=tiny_pet.num_task_types), rng=1
        )
        with pytest.raises(ValueError, match="task 2 arrives at 5"):
            sim.run(specs)

    @pytest.mark.parametrize("window", [0, 7])
    def test_a_generator_runs_as_the_trace(self, window):
        pet = build_transcoding_pet(rng=2019)
        trace = load_trace(REFERENCE_TRACE)
        runs = []
        for specs in (trace, (spec for spec in trace)):
            sim = HCSimulator(
                pet,
                make_heuristic("PAMF", num_task_types=pet.num_task_types),
                config=SimulatorConfig(batch_window=window),
                rng=2021,
            )
            runs.append(sim.run(specs))
        from_trace, from_generator = runs
        assert from_generator.outcomes == from_trace.outcomes
        assert from_generator.counters.as_dict() == from_trace.counters.as_dict()
        assert from_generator.end_time == from_trace.end_time

    @given(
        trace=traces(),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window=st.sampled_from([0, 1, 7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_decisions_before_an_arrival_ignore_the_rest_of_the_trace(
        self, tiny_pet, trace, data, seed, window
    ):
        """Metamorphic relation: what happens before task k arrives is what
        the trace truncated before k does."""
        k = data.draw(st.integers(min_value=0, max_value=len(trace) - 1))
        heuristic = data.draw(st.sampled_from(HEURISTICS))
        config = SimulatorConfig(batch_window=window)
        _, full_log = _run_heap(
            tiny_pet, trace, heuristic=heuristic, seed=seed, config=config, streamed=True
        )
        _, truncated_log = _run_heap(
            tiny_pet, trace.tasks[:k], heuristic=heuristic, seed=seed, config=config,
            streamed=True,
        )
        arrival = trace[k].arrival
        assert _log_before(truncated_log, arrival) == _log_before(full_log, arrival)


def _run_or_submit(pet, specs, *, heuristic, seed, window, streamed, **options):
    """One run of ``specs``: through ``run``, or submitted one at a time
    to a :class:`SchedulerCore` (``advance_until`` then ``inject_task``
    per arrival, the service's path).  ``options`` go to ``make_heuristic``."""
    config = SimulatorConfig(batch_window=window)
    policy = make_heuristic(heuristic, num_task_types=pet.num_task_types, **options)
    if not streamed:
        return HCSimulator(pet, policy, config=config, rng=seed).run(specs)
    core = SchedulerCore(pet, policy, config=config, rng=seed)
    for spec in specs:
        core.submit(spec)
    core.close()
    return core.result


class TestRelabelling:
    @given(
        trace=traces(),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window=st.sampled_from([0, 7]),
        heuristic=st.sampled_from(["PAM", "PAMF", "MOC"]),
        streamed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_increasing_relabelling_changes_only_the_ids(
        self, tiny_pet, trace, data, seed, window, heuristic, streamed
    ):
        """Metamorphic relation: ids carry no meaning beyond their order."""
        base = data.draw(st.integers(min_value=0, max_value=2**40))
        gaps = data.draw(
            st.lists(st.integers(1, 10**6), min_size=len(trace), max_size=len(trace))
        )
        ids = sorted(spec.task_id for spec in trace)
        new_id = dict(zip(ids, accumulate(gaps, initial=base)))
        relabelled = [replace(spec, task_id=new_id[spec.task_id]) for spec in trace]
        run = partial(
            _run_or_submit, tiny_pet, heuristic=heuristic, seed=seed, window=window,
            streamed=streamed,
        )
        original, renamed = run(trace), run(relabelled)
        assert renamed.outcomes.task_id.tolist() == [
            new_id[task_id] for task_id in original.outcomes.task_id.tolist()
        ]
        for name in [name for name in OUTCOME_FIELDS if name != "task_id"]:
            assert np.array_equal(
                getattr(renamed.outcomes, name), getattr(original.outcomes, name)
            ), name
        assert renamed.counters.as_dict() == original.counters.as_dict()
        assert renamed.machine_busy_times == original.machine_busy_times
        assert renamed.end_time == original.end_time


#: One task that starts executing at time 0 and finishes at 4, before its
#: deadline of 5.
_START_AT_ZERO = WorkloadTrace(
    (TaskSpec(arrival=0, task_id=0, task_type=1, deadline=5),),
    WorkloadConfig(num_tasks=1, time_span=100),
    num_task_types=3,
)


class TestNoPruningAheadOfDeadline:
    @example(
        trace=_START_AT_ZERO, seed=0, window=0, heuristic="PAM", streamed=False
    )
    @given(
        trace=traces(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window=st.sampled_from([0, 7]),
        heuristic=st.sampled_from(["PAM", "PAMF"]),
        streamed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_thresholds_without_dropping_drop_only_missed_deadlines(
        self, tiny_pet, trace, seed, window, heuristic, streamed
    ):
        """Metamorphic relation: a deferring threshold of 0 with dropping
        off prunes nothing ahead of a deadline."""
        result = _run_or_submit(
            tiny_pet, trace, heuristic=heuristic, seed=seed, window=window,
            streamed=streamed,
            thresholds=PruningThresholds(dropping=0.0, deferring=0.0),
            enable_dropping=False,
        )
        assert result.counters.deferrals == 0
        assert result.counters.proactive_drops == 0
        outcomes = result.outcomes
        assert DropReason.PRUNED not in outcomes.values("drop_reason")
        dropped = outcomes.dropped_at != NONE
        assert (outcomes.dropped_at[dropped] >= outcomes.deadline[dropped]).all()
