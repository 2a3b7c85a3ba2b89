"""The outcome table: what a finished run keeps, and the metrics read from it.

A result holds each task's terminal outcome as one row of typed columns, and
the engine forgets a task at its terminal event.  Pinned here:

* a finished 2,400-task batched scale run (the bench's ``trial-batched``
  inputs) retains at most 48 bytes per task, and nothing reachable from the
  result is a ``Task`` or a ``TaskSpec``;
* the live engine holds exactly its non-terminal tasks;
* on Hypothesis-drawn outcome sets, every metric equals the ``Task``-loop
  formula it replaced (``==``, warm-up and cool-down trims included), and the
  records ``result.tasks`` builds carry the tasks' own field values;
* ids, times and machine indices past the int8 and int32 limits (up to
  ~2**62) widen only their own column, every column equals an int64
  reference row for row, and the metrics above still hold.
"""

from __future__ import annotations

import gc
import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.registry import make_heuristic
from repro.simulator.engine import HCSimulator
from repro.simulator.metrics import (
    DROP_REASONS,
    NONE,
    OUTCOME_FIELDS,
    STATUSES,
    SimulationCounters,
    SimulationResult,
    TaskOutcomes,
)
from repro.simulator.task import DropReason, Task, TaskStatus
from repro.workload.spec import TaskSpec

_spec = importlib.util.spec_from_file_location(
    "result_footprint",
    Path(__file__).resolve().parent.parent.parent / "scripts" / "result_footprint.py",
)
footprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(footprint)

BYTES_PER_TASK = 48
FIELDS = (
    "task_id",
    "task_type",
    "arrival",
    "deadline",
    "status",
    "machine",
    "mapped_at",
    "exec_start",
    "exec_end",
    "actual_execution_time",
    "drop_reason",
    "dropped_at",
    "on_time",
    "is_terminal",
    "busy_time",
)


class TestFootprint:
    def test_finished_batched_run_retains_at_most_48_bytes_per_task(self):
        assert footprint.bytes_per_task() <= BYTES_PER_TASK

    def test_result_references_no_task_or_spec(self):
        sim, trace = footprint.batched_run()
        result = sim.run(trace)
        seen, stack, kinds = set(), [result], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            kinds.add(type(obj))
            stack.extend(gc.get_referents(obj))
        assert Task not in kinds and TaskSpec not in kinds
        assert len(result.outcomes) == 2400

    def test_engine_holds_only_live_tasks(self, small_gamma_pet, small_trace):
        sim = HCSimulator(
            small_gamma_pet,
            make_heuristic("PAMF", num_task_types=small_gamma_pet.num_task_types),
            rng=3,
        )
        sim.begin_stream()
        for spec in small_trace:
            sim.advance_until(spec.arrival)
            sim.inject_task(spec)
            assert all(not task.is_terminal for task in sim.tasks.values())
        result = sim.finish_stream()
        assert sim.tasks == {}
        assert result.num_tasks == len(small_trace)


# ----------------------------------------------------------------------
# Metrics on the columns == the Task-loop formulas
# ----------------------------------------------------------------------
KINDS = (
    "completed",
    "evicted",
    "dropped-queued",
    "dropped-unmapped",
    "pruned-queued",
    "pruned-executing",
    "dropped-no-reason",
    "pending",
)


#: Row offsets that put a row's times below, across and far past the int32
#: limit (a row spans at most ~180 units past its arrival).
WIDE_TIME_BASES = (0, 2**31 - 100, 2**40, 2**62)
#: Machine indices on both sides of the int8 and int32 limits.
WIDE_MACHINES = (0, 3, 127, 128, 2**31 - 1, 2**31, 2**62)
#: Outcome columns that start as int8; the others start as int32.
INT8_COLUMNS = ("task_type", "status", "machine", "drop_reason")


@st.composite
def outcome_sets(draw, *, wide=False):
    """Terminal (and a few live) tasks of every kind, with metric trims.

    ``wide`` draws ids, times and machine indices that cross the outcome
    table's int8 and int32 column limits, up to ~2**62.
    """
    num_types = draw(st.integers(1, 5))
    arrivals = st.integers(0, 40)  # ties exercise the id tiebreak
    if wide:
        arrivals = st.tuples(st.sampled_from(WIDE_TIME_BASES), arrivals).map(sum)
    rows = draw(
        st.lists(
            st.tuples(
                arrivals,
                st.integers(1, 60),  # slack
                st.integers(0, num_types - 1),
                st.sampled_from(KINDS),
                st.sampled_from(WIDE_MACHINES) if wide else st.integers(0, 3),
                st.integers(0, 30),  # wait before the next transition
                st.integers(1, 50),  # execution time
            ),
            max_size=40,
        )
    )
    ids = draw(st.permutations(range(len(rows))))
    # Under ``wide``, ids step past 2**31 and 2**62 inside one table.
    stride = draw(st.sampled_from([3, 2**27, 2**56])) if wide else 3
    tasks = []
    for task_id, (arrival, slack, task_type, kind, machine, wait, run) in zip(ids, rows):
        task = Task(TaskSpec(arrival, task_id * stride - 7, task_type, arrival + slack))
        tasks.append(task)
        later = arrival + wait
        if kind == "pending":
            continue
        if kind in ("dropped-unmapped", "dropped-no-reason"):
            task.mark_dropped(later, DropReason.DEADLINE_MISS_UNMAPPED)
            if kind == "dropped-no-reason":
                task.drop_reason = None
            continue
        task.mark_mapped(machine, arrival)
        if kind == "dropped-queued":
            task.mark_dropped(later, DropReason.DEADLINE_MISS_QUEUED)
        elif kind == "pruned-queued":
            task.mark_dropped(later, DropReason.PRUNED)
        else:
            task.mark_executing(later, run)
            if kind == "completed":
                task.mark_completed(later + run)
            elif kind == "evicted":
                task.mark_dropped(task.deadline, DropReason.DEADLINE_MISS_EXECUTING)
            else:
                task.mark_dropped(later + run // 2, DropReason.PRUNED)
    trims = draw(st.tuples(st.integers(0, 45), st.integers(0, 45)))
    return num_types, tasks, trims


def _loop_formulas(tasks, num_types, warmup, cooldown):
    """The metrics as they read when a result held its ``Task`` objects."""
    ordered = sorted(tasks, key=lambda t: (t.arrival, t.task_id))
    if warmup + cooldown >= len(ordered):
        evaluated = ordered
    else:
        end = len(ordered) - cooldown if cooldown else len(ordered)
        evaluated = ordered[warmup:end]
    robustness = (
        100.0 * sum(1 for t in evaluated if t.on_time) / len(evaluated) if evaluated else 0.0
    )
    totals = np.zeros(num_types, dtype=np.float64)
    on_time = np.zeros(num_types, dtype=np.float64)
    for task in evaluated:
        totals[task.task_type] += 1
        if task.on_time:
            on_time[task.task_type] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        percents = np.where(totals > 0, 100.0 * on_time / totals, np.nan)
    valid = percents[~np.isnan(percents)]
    counts: dict[str, int] = {}
    for task in ordered:
        if task.status is TaskStatus.COMPLETED:
            key = "completed-on-time" if task.on_time else "completed-late"
        elif task.status is TaskStatus.DROPPED:
            key = (task.drop_reason or DropReason.DEADLINE_MISS_UNMAPPED).value
        else:
            key = task.status.value
        counts[key] = counts.get(key, 0) + 1
    return {
        "ordered": ordered,
        "completed_on_time": sum(1 for t in evaluated if t.on_time),
        "robustness": robustness,
        "per_type": percents,
        "fairness": float(np.var(valid)) if valid.size else 0.0,
        "status_counts": list(counts.items()),
    }


def _check_against_the_task_loop(drawn) -> SimulationResult:
    """The result of ``drawn``'s tasks, its metrics and records checked."""
    num_types, tasks, (warmup, cooldown) = drawn
    result = SimulationResult(
        outcomes=TaskOutcomes.of(tasks),
        machine_names=("m0", "m1"),
        machine_busy_times=(700.0, 300.0),
        machine_prices=(1.0, 2.5),
        num_task_types=num_types,
        counters=SimulationCounters(mapping_events=4),
        end_time=120,
    )
    expected = _loop_formulas(tasks, num_types, warmup, cooldown)
    trim = {"warmup": warmup, "cooldown": cooldown}
    assert result.completed_on_time(**trim) == expected["completed_on_time"]
    assert result.robustness_percent(**trim) == expected["robustness"]
    assert np.array_equal(
        result.per_type_completion_percent(**trim), expected["per_type"], equal_nan=True
    )
    assert result.fairness_variance(**trim) == expected["fairness"]
    assert list(result.status_counts().items()) == expected["status_counts"]
    assert result.summary(**trim)["tasks"] == float(len(tasks))
    assert [[getattr(t, name) for name in FIELDS] for t in result.tasks] == [
        [getattr(t, name) for name in FIELDS] for t in expected["ordered"]
    ]
    return result


@settings(max_examples=150, deadline=None)
@given(outcome_sets())
def test_metrics_equal_the_task_loop_formulas(drawn):
    _check_against_the_task_loop(drawn)


def _code(name, value):
    """``value`` of column ``name`` as the outcome table stores it."""
    if name == "status":
        return STATUSES.index(value)
    if value is None:
        return NONE
    return DROP_REASONS.index(value) if name == "drop_reason" else value


@settings(max_examples=150, deadline=None)
@given(outcome_sets(wide=True))
def test_values_past_a_column_width_widen_that_column_and_stay_exact(drawn):
    outcomes = _check_against_the_task_loop(drawn).outcomes
    ordered = sorted(drawn[1], key=lambda t: (t.arrival, t.task_id))
    for name in OUTCOME_FIELDS:
        reference = np.array([_code(name, getattr(t, name)) for t in ordered], dtype=np.int64)
        column = getattr(outcomes, name)
        assert np.array_equal(column, reference), name
        assert outcomes.values(name) == [getattr(t, name) for t in ordered], name
        # Each column starts narrow and is int64 only if a value needed it.
        start = np.int8 if name in INT8_COLUMNS else np.int32
        limits = np.iinfo(start)
        fits = all(limits.min <= value <= limits.max for value in reference.tolist())
        assert column.dtype == (start if fits else np.int64), name
