"""Tests for workload trace generation."""

from __future__ import annotations

import pytest

from repro.workload.generator import WorkloadConfig, WorkloadTrace, generate_workload
from repro.workload.spec import TaskSpec


class TestTaskSpec:
    def test_valid_spec(self):
        spec = TaskSpec(arrival=10, task_id=1, task_type=2, deadline=50)
        assert spec.slack == 40

    def test_deadline_must_follow_arrival(self):
        with pytest.raises(ValueError):
            TaskSpec(arrival=10, task_id=1, task_type=0, deadline=10)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(arrival=-1, task_id=1, task_type=0, deadline=10)

    def test_negative_type_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(arrival=0, task_id=1, task_type=-1, deadline=10)

    def test_ordering_by_arrival(self):
        early = TaskSpec(arrival=5, task_id=2, task_type=0, deadline=20)
        late = TaskSpec(arrival=9, task_id=1, task_type=0, deadline=20)
        assert sorted([late, early])[0] is early


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_tasks=0, time_span=100)
        with pytest.raises(ValueError):
            WorkloadConfig(num_tasks=10, time_span=0)
        with pytest.raises(ValueError):
            WorkloadConfig(num_tasks=10, time_span=100, beta=-1)
        with pytest.raises(ValueError):
            WorkloadConfig(num_tasks=10, time_span=100, variance_fraction=0)

    @pytest.mark.parametrize("field", ["beta", "variance_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        """``nan < 0`` is false: a bare sign check lets NaN reach the trace."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            WorkloadConfig(num_tasks=10, time_span=100, **{field: value})


class TestGenerateWorkload:
    def test_task_count_and_order(self, small_gamma_pet):
        config = WorkloadConfig(num_tasks=100, time_span=800)
        trace = generate_workload(config, small_gamma_pet, rng=1)
        assert len(trace) == 100
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)

    def test_unique_ids(self, small_gamma_pet):
        trace = generate_workload(WorkloadConfig(80, 800), small_gamma_pet, rng=1)
        ids = [t.task_id for t in trace]
        assert len(set(ids)) == len(ids)

    def test_deadlines_follow_formula(self, small_gamma_pet):
        config = WorkloadConfig(num_tasks=60, time_span=600, beta=2.0)
        trace = generate_workload(config, small_gamma_pet, rng=2)
        avg_all = small_gamma_pet.overall_mean()
        for task in trace:
            expected = round(
                task.arrival
                + small_gamma_pet.task_type_mean(task.task_type)
                + 2.0 * avg_all
            )
            assert task.deadline == expected

    def test_all_task_types_used(self, small_gamma_pet):
        trace = generate_workload(WorkloadConfig(200, 800), small_gamma_pet, rng=3)
        assert set(t.task_type for t in trace) == set(range(small_gamma_pet.num_task_types))

    def test_task_type_subset(self, small_gamma_pet):
        trace = generate_workload(
            WorkloadConfig(60, 600), small_gamma_pet, rng=3, task_types=[1, 3]
        )
        assert set(t.task_type for t in trace) <= {1, 3}

    def test_invalid_task_type_subset(self, small_gamma_pet):
        with pytest.raises(IndexError):
            generate_workload(WorkloadConfig(10, 100), small_gamma_pet, rng=1, task_types=[99])

    def test_reproducibility(self, small_gamma_pet):
        a = generate_workload(WorkloadConfig(50, 500), small_gamma_pet, rng=7)
        b = generate_workload(WorkloadConfig(50, 500), small_gamma_pet, rng=7)
        assert list(a) == list(b)

    def test_different_seeds_differ(self, small_gamma_pet):
        a = generate_workload(WorkloadConfig(50, 500), small_gamma_pet, rng=7)
        b = generate_workload(WorkloadConfig(50, 500), small_gamma_pet, rng=8)
        assert list(a) != list(b)

    def test_offered_load_scales_with_task_count(self, small_gamma_pet):
        light = generate_workload(WorkloadConfig(40, 1000), small_gamma_pet, rng=4)
        heavy = generate_workload(WorkloadConfig(160, 1000), small_gamma_pet, rng=4)
        assert heavy.offered_load(small_gamma_pet) > 2 * light.offered_load(small_gamma_pet)

    def test_type_counts(self, small_gamma_pet):
        trace = generate_workload(WorkloadConfig(120, 900), small_gamma_pet, rng=5)
        counts = trace.type_counts()
        assert counts.sum() == 120
        assert counts.size == small_gamma_pet.num_task_types


class TestWorkloadTrace:
    def test_indexing_and_iteration(self, small_trace):
        assert small_trace[0].task_id == next(iter(small_trace)).task_id

    def test_unsorted_trace_rejected(self, small_gamma_pet):
        specs = (
            TaskSpec(arrival=50, task_id=0, task_type=0, deadline=100),
            TaskSpec(arrival=10, task_id=1, task_type=0, deadline=100),
        )
        with pytest.raises(ValueError):
            WorkloadTrace(specs, WorkloadConfig(2, 100))
