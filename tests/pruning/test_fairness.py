"""Tests for the sufferage-based fairness tracker (PAMF)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pruning.fairness import SufferageTracker
from repro.pruning.thresholds import PruningThresholds
from repro.simulator.mapping import TerminalEvent
from repro.simulator.metrics import SimulationResult, TaskOutcomes
from repro.simulator.task import DropReason, Task
from repro.workload.spec import TaskSpec


class TestSufferageUpdates:
    def test_initial_sufferage_is_zero(self):
        tracker = SufferageTracker(4)
        assert np.all(tracker.values == 0.0)

    def test_failure_raises_success_lowers(self):
        tracker = SufferageTracker(2, fairness_factor=0.05)
        tracker.record_failure(0)
        tracker.record_failure(0)
        assert tracker.sufferage_of(0) == pytest.approx(0.10)
        tracker.record_success(0)
        assert tracker.sufferage_of(0) == pytest.approx(0.05)

    def test_sufferage_clipped_to_unit_interval(self):
        tracker = SufferageTracker(1, fairness_factor=0.6)
        tracker.record_success(0)
        assert tracker.sufferage_of(0) == 0.0
        tracker.record_failure(0)
        tracker.record_failure(0)
        assert tracker.sufferage_of(0) == 1.0

    def test_types_tracked_independently(self):
        tracker = SufferageTracker(3, fairness_factor=0.1)
        tracker.record_failure(1)
        assert tracker.sufferage_of(0) == 0.0
        assert tracker.sufferage_of(1) == pytest.approx(0.1)
        assert tracker.sufferage_of(2) == 0.0

    def test_observe_terminal_events(self):
        tracker = SufferageTracker(2, fairness_factor=0.05)
        events = [
            TerminalEvent(task_id=1, task_type=0, on_time=False),
            TerminalEvent(task_id=2, task_type=0, on_time=False),
            TerminalEvent(task_id=3, task_type=1, on_time=True),
        ]
        tracker.observe_terminal_events(events)
        assert tracker.sufferage_of(0) == pytest.approx(0.10)
        assert tracker.sufferage_of(1) == 0.0

    def test_out_of_range_type(self):
        tracker = SufferageTracker(2)
        with pytest.raises(IndexError):
            tracker.record_failure(5)
        with pytest.raises(IndexError):
            tracker.sufferage_of(-1)

    def test_reset(self):
        tracker = SufferageTracker(2, fairness_factor=0.2)
        tracker.record_failure(0)
        tracker.reset()
        assert np.all(tracker.values == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SufferageTracker(0)
        with pytest.raises(ValueError):
            SufferageTracker(2, fairness_factor=1.5)


def completion_result(on_time_of_total: list[tuple[int, int]]) -> SimulationResult:
    """A result whose task type ``k`` has ``on_time`` of ``total`` tasks on time."""
    tasks, task_id = [], 0
    for task_type, (on_time, total) in enumerate(on_time_of_total):
        for i in range(total):
            task = Task(TaskSpec(arrival=task_id, task_id=task_id, task_type=task_type,
                                 deadline=task_id + 100))
            if i < on_time:
                task.mark_mapped(0, task_id)
                task.mark_executing(task_id, 10)
                task.mark_completed(task_id + 10)
            else:
                task.mark_dropped(task_id + 200, DropReason.DEADLINE_MISS_UNMAPPED)
            tasks.append(task)
            task_id += 1
    return SimulationResult(
        outcomes=TaskOutcomes.of(tasks),
        machine_names=("m0",),
        machine_busy_times=(0.0,),
        machine_prices=(1.0,),
        num_task_types=len(on_time_of_total),
    )


class TestThresholdRelaxation:
    """PAMF's relaxation as the pruner applies it: the type's sufferage
    subtracted from the base threshold by ``PruningThresholds``."""

    def test_relaxed_threshold_subtracts_sufferage(self):
        tracker = SufferageTracker(2, fairness_factor=0.25)
        tracker.record_failure(0)
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        assert thresholds.deferring_threshold_for(
            sufferage=tracker.sufferage_of(0)
        ) == pytest.approx(0.65)
        assert thresholds.deferring_threshold_for(
            sufferage=tracker.sufferage_of(1)
        ) == pytest.approx(0.9)

    def test_relaxed_threshold_floors_at_zero(self):
        tracker = SufferageTracker(1, fairness_factor=1.0)
        tracker.record_failure(0)
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        assert thresholds.dropping_threshold_for(sufferage=tracker.sufferage_of(0)) == 0.0

    def test_zero_fairness_factor_never_relaxes(self):
        tracker = SufferageTracker(2, fairness_factor=0.0)
        for _ in range(10):
            tracker.record_failure(1)
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        assert thresholds.deferring_threshold_for(
            sufferage=tracker.sufferage_of(1)
        ) == pytest.approx(0.9)


class TestFairnessMetric:
    """Figure 6's metric as results report it: ``fairness_variance``."""

    def test_variance_of_equal_completion_is_zero(self):
        result = completion_result([(1, 2), (1, 2), (1, 2)])
        assert result.fairness_variance() == 0.0

    def test_variance_grows_with_imbalance(self):
        balanced = completion_result([(4, 10), (5, 10), (6, 10)]).fairness_variance()
        skewed = completion_result([(1, 20), (10, 20), (19, 20)]).fairness_variance()
        assert skewed > balanced

    def test_nan_types_ignored(self):
        assert completion_result([(1, 2), (0, 0)]).fairness_variance() == 0.0
