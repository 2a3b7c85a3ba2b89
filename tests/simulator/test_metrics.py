"""Tests for simulation metrics (robustness, fairness, cost)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.metrics import SimulationCounters, SimulationResult, TaskOutcomes
from repro.simulator.task import DropReason, Task
from repro.workload.spec import TaskSpec


def make_result(statuses: list[tuple[int, bool | None]], *, num_types: int = 2) -> SimulationResult:
    """Build a synthetic result.

    ``statuses`` is a list of (task_type, on_time) where ``on_time`` None
    means the task was dropped.
    """
    tasks = []
    for i, (task_type, on_time) in enumerate(statuses):
        task = Task(TaskSpec(arrival=i, task_id=i, task_type=task_type, deadline=i + 100))
        if on_time is None:
            task.mark_dropped(i + 200, DropReason.DEADLINE_MISS_UNMAPPED)
        else:
            task.mark_mapped(0, i)
            task.mark_executing(i + 1, 10)
            task.mark_completed(i + 11 if on_time else i + 300)
        tasks.append(task)
    return SimulationResult(
        outcomes=TaskOutcomes.of(tasks),
        machine_names=("m0", "m1"),
        machine_busy_times=(1000.0, 500.0),
        machine_prices=(1.0, 2.0),
        num_task_types=num_types,
        counters=SimulationCounters(),
        end_time=999,
    )


class TestRobustness:
    def test_all_on_time(self):
        result = make_result([(0, True), (1, True)])
        assert result.robustness_percent() == pytest.approx(100.0)

    def test_mixed(self):
        result = make_result([(0, True), (0, False), (1, None), (1, True)])
        assert result.robustness_percent() == pytest.approx(50.0)
        assert result.completed_on_time() == 2

    def test_warmup_cooldown_trimming(self):
        # first and last tasks fail; middle two succeed
        result = make_result([(0, None), (0, True), (1, True), (1, None)])
        assert result.robustness_percent() == pytest.approx(50.0)
        assert result.robustness_percent(warmup=1, cooldown=1) == pytest.approx(100.0)

    def test_trimming_everything_falls_back_to_all(self):
        result = make_result([(0, True), (1, None)])
        assert result.robustness_percent(warmup=5, cooldown=5) == pytest.approx(50.0)

    def test_negative_trim_rejected(self):
        result = make_result([(0, True)])
        with pytest.raises(ValueError):
            result.robustness_percent(warmup=-1)

    def test_empty_result(self):
        result = SimulationResult(
            outcomes=TaskOutcomes.of(()),
            machine_names=("m0",),
            machine_busy_times=(0.0,),
            machine_prices=(1.0,),
            num_task_types=1,
        )
        assert result.robustness_percent() == 0.0


class TestFairness:
    def test_per_type_percentages(self):
        result = make_result([(0, True), (0, True), (1, None), (1, True)])
        per_type = result.per_type_completion_percent()
        assert per_type[0] == pytest.approx(100.0)
        assert per_type[1] == pytest.approx(50.0)

    def test_unused_type_is_nan(self):
        result = make_result([(0, True)], num_types=3)
        per_type = result.per_type_completion_percent()
        assert np.isnan(per_type[1]) and np.isnan(per_type[2])

    def test_variance_zero_when_types_equal(self):
        result = make_result([(0, True), (1, True)])
        assert result.fairness_variance() == pytest.approx(0.0)

    def test_variance_positive_when_types_differ(self):
        result = make_result([(0, True), (0, True), (1, None), (1, None)])
        assert result.fairness_variance() > 0


class TestCostMetrics:
    def test_total_cost(self):
        result = make_result([(0, True)])
        assert result.total_cost() == pytest.approx(1000 * 1.0 / 1000 + 500 * 2.0 / 1000)

    def test_cost_per_percent(self):
        result = make_result([(0, True), (1, None)])
        expected = result.total_cost() / 50.0
        assert result.cost_per_percent_on_time() == pytest.approx(expected)

    def test_cost_per_percent_infinite_when_nothing_completes(self):
        result = make_result([(0, None), (1, None)])
        assert result.cost_per_percent_on_time() == float("inf")


class TestSummaries:
    def test_status_counts(self):
        result = make_result([(0, True), (0, False), (1, None)])
        counts = result.status_counts()
        assert counts["completed-on-time"] == 1
        assert counts["completed-late"] == 1
        assert counts[DropReason.DEADLINE_MISS_UNMAPPED.value] == 1

    def test_summary_keys(self):
        summary = make_result([(0, True)]).summary()
        for key in ("robustness_percent", "total_cost", "mapping_events", "tasks"):
            assert key in summary

    def test_counters_as_dict(self):
        counters = SimulationCounters(mapping_events=3, assignments=2)
        payload = counters.as_dict()
        assert payload["mapping_events"] == 3
        assert payload["assignments"] == 2
