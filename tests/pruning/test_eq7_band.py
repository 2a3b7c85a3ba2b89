"""Eq. 7 on its band: a task above the highest threshold is kept without a skewness.

The dropping threshold ``T(s) = clamp(base + (-s * rho) / (kappa + 1))`` is
non-increasing in the bounded skewness ``s`` in floating point too, so a
queued task whose success probability exceeds ``T(-1)`` survives at every
``s`` in ``[-1, 1]``: the pruner records it in ``examined`` with threshold
``None`` and never computes its Eq. 6 skewness.  Pinned two ways:

* a property over ``(base, sufferage, rho, kappa, s, p)`` — with and
  without the per-task adjustment — that ``T(s) <= T(-1)`` and that
  ``p > T(-1)`` never drops;
* on the 600-task load-3.0 trace under PAM and PAMF, every machine queue
  any mapping event walks, through the state-backed walk (its cached
  prefix and its post-drop suffix) and the self-contained re-convolving
  walk, against the eager walk below — the head-first walk computing every
  examined task's threshold: the same drops, the same post-drop
  availability bit for bit, the same examined probabilities, and the eager
  threshold wherever the band computed one (a band-kept task's eager
  threshold is below its probability).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import completion_step
from repro.core.pmf import DiscretePMF
from repro.heuristics.registry import make_heuristic
from repro.pruning.thresholds import PruningThresholds
from repro.simulator.engine import HCSimulator

unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    base=unit,
    sufferage=unit,
    rho=st.floats(0.0, 2.0, allow_nan=False),
    kappa=st.integers(0, 12),
    s=st.floats(-1.0, 1.0, allow_nan=False),
    p=unit,
    dynamic=st.booleans(),
)
def test_a_probability_above_the_ceiling_is_never_dropped(
    base, sufferage, rho, kappa, s, p, dynamic
):
    thresholds = PruningThresholds(
        dropping=base, deferring=1.0, rho=rho, dynamic_per_task=dynamic
    )
    ceiling = thresholds.dropping_threshold_ceiling(kappa, sufferage=sufferage)
    threshold = thresholds.dropping_threshold_for_skewness(s, kappa, sufferage=sufferage)
    assert threshold <= ceiling
    for probability in (p, math.nextafter(ceiling, 2.0)):
        if probability > ceiling:
            assert not thresholds.should_drop(probability, threshold)


# ----------------------------------------------------------------------
# The walks against the eager reference
# ----------------------------------------------------------------------
def eager_walk(pruner, machine, context):
    """``(drops, examined, availability)``: every examined task's threshold computed."""
    thresholds = pruner.thresholds

    def sufferage(task) -> float:
        return 0.0 if pruner.fairness is None else pruner.fairness.sufferage_of(task.task_type)

    tasks = machine.queued_tasks()
    drops: list[int] = []
    examined: list[tuple[int, float, float]] = []
    # A step from the free machine's ``point(now)`` (``deadline > now``) is
    # uncapped: that task starts at ``now`` on its exact completion PMF.
    prev = base = DiscretePMF.point(context.now)
    start = 0
    if tasks and machine.executing is not None:
        head = machine.executing
        raw = machine.executing_completion_pmf(context.pet, context.now)
        prob = float(min(1.0, raw.cdf(head.deadline)))
        threshold = thresholds.dropping_threshold_for(raw, 0, sufferage=sufferage(head))
        examined.append((head.task_id, prob, threshold))
        if thresholds.should_drop(prob, threshold):
            drops.append(head.task_id)
        else:
            prev = raw.collapse_tail_to(max(head.deadline, context.now + 1))
        start = 1
    for position, task in enumerate(tasks[start:], start=start):
        step = completion_step(
            context.pet.get(task.task_type, machine.index),
            prev,
            task.deadline,
            context.policy,
            None if prev is base and task.deadline > context.now else context.max_impulses,
        )
        threshold = thresholds.dropping_threshold_for(
            step.completion, position, sufferage=sufferage(task)
        )
        examined.append((task.task_id, step.success_probability, threshold))
        if thresholds.should_drop(step.success_probability, threshold):
            drops.append(task.task_id)
            continue
        prev = step.availability
    return drops, examined, prev


def assert_matches_eager(report, eager, counts) -> None:
    drops, examined, availability = eager
    assert [drop.task_id for drop in report.drops] == drops
    assert [(tid, p) for tid, p, _ in report.examined] == [(tid, p) for tid, p, _ in examined]
    for (_, p, got), (_, _, want) in zip(report.examined, examined):
        if got is None:
            counts["band"] += 1
            assert p > want
        else:
            counts["computed"] += 1
            assert got == want
    got, want = report.availability.compact(), availability.compact()
    assert got.offset == want.offset and np.array_equal(got.probs, want.probs)


@pytest.mark.parametrize("name", ["PAM", "PAMF"])
def test_every_walk_of_the_oversubscribed_trial_matches_the_eager_walk(name, oversub_inputs):
    pet, trace = oversub_inputs
    heuristic = make_heuristic(name, num_task_types=pet.num_task_types)
    pruner = heuristic.pruner
    state_backed = pruner.prune_machine_queue
    counts = {"walks": 0, "band": 0, "computed": 0, "drops": 0}

    def checked(machine, context):
        eager = eager_walk(pruner, machine, context)
        report = state_backed(machine, context)
        assert_matches_eager(report, eager, counts)
        rebuilt = pruner._prune_machine_queue_rebuilding(machine, context)
        assert_matches_eager(rebuilt, eager, counts)
        counts["walks"] += 1
        counts["drops"] += len(report.drops)
        return report

    pruner.prune_machine_queue = checked
    HCSimulator(pet, heuristic, rng=2019).run(trace)
    # Not vacuous: most examined tasks are decided on the band, some are
    # not, and some are dropped (so post-drop suffixes were walked too).
    assert counts["walks"] > 500 and counts["drops"] > 0
    assert counts["band"] > 10 * counts["computed"] > 0
