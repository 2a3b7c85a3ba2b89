"""Tests for one data point's trials (``execute_point``) and their series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SeriesResult, TrialMetrics
from repro.simulator.engine import simulate
from repro.sweep import HeuristicSpec, PETSpec, SweepPoint, TraceSpec, execute_point, pet_for
from repro.sweep import trial as trial_module
from repro.workload.generator import WorkloadConfig


@pytest.fixture
def quick_config() -> ExperimentConfig:
    return ExperimentConfig(trials=2, seed=99, warmup_tasks=5, cooldown_tasks=5)


@pytest.fixture
def quick_workload() -> WorkloadConfig:
    return WorkloadConfig(num_tasks=60, time_span=400, beta=1.5)


def point(config, workload=None, *, heuristic="MM", trace=None, pet=None) -> SweepPoint:
    return SweepPoint(
        label="demo",
        pet=pet or PETSpec(kind="spec", seed=config.seed),
        heuristic=HeuristicSpec(heuristic),
        workload=workload,
        config=config,
        trace=trace,
    )


@pytest.fixture
def simulated_traces(monkeypatch):
    """Record the arrival trace each trial hands the simulator."""
    traces = []

    def recording_simulate(pet, heuristic, trace, **kwargs):
        traces.append(trace)
        return simulate(pet, heuristic, trace, **kwargs)

    monkeypatch.setattr(trial_module, "simulate", recording_simulate)
    return traces


class TestExecutePoint:
    def test_runs_requested_trials(self, quick_config, quick_workload):
        demo = point(quick_config, quick_workload)
        trials = execute_point(demo)
        num_task_types = pet_for(demo.pet).num_task_types
        assert len(trials) == 2
        for trial in trials:
            assert 0.0 <= trial.robustness_percent <= 100.0
            assert trial.total_tasks == 60
            assert len(trial.per_type_completion_percent) == num_task_types

    def test_reproducible_with_same_seed(self, quick_config, quick_workload):
        first = execute_point(point(quick_config, quick_workload))
        second = execute_point(point(quick_config, quick_workload))
        assert first == second

    def test_trials_use_distinct_workloads(self, quick_config, quick_workload):
        trials = execute_point(point(quick_config, quick_workload))
        # Different arrival streams almost surely give different costs.
        costs = [t.total_cost for t in trials]
        assert costs[0] != costs[1]

    def test_heuristics_at_one_point_see_paired_arrivals(
        self, quick_config, quick_workload, simulated_traces
    ):
        for name in ("MM", "PAM"):
            execute_point(point(quick_config, quick_workload, heuristic=name))
        mm, pam = simulated_traces[:2], simulated_traces[2:]
        assert [t.tasks for t in mm] == [t.tasks for t in pam]
        assert mm[0].tasks != mm[1].tasks

    def test_trace_point_replays_the_same_trace_every_trial(self, simulated_traces):
        config = ExperimentConfig(trials=2, seed=7, warmup_tasks=0, cooldown_tasks=0)
        replay = point(
            config,
            heuristic="PAMF",
            pet=PETSpec(kind="transcoding", seed=7),
            trace=TraceSpec(builder="transcoding-660", seed=7, num_tasks=33),
        )
        trials = execute_point(replay)
        assert [t.total_tasks for t in trials] == [33, 33]
        assert simulated_traces[0].tasks == simulated_traces[1].tasks

    def test_summaries(self, quick_config, quick_workload):
        trials = execute_point(point(quick_config, quick_workload))
        series = SeriesResult(label="demo", trials=trials)
        robustness = series.robustness()
        assert robustness.n == 2
        assert series.mean_robustness() == pytest.approx(robustness.mean)
        assert series.label == "demo"
        assert len(series.trials) == 2

    def test_cost_per_percent_ignores_infinite_trials(self):
        series = SeriesResult(label="x")
        series.trials.append(
            TrialMetrics(
                robustness_percent=0.0,
                fairness_variance=0.0,
                total_cost=1.0,
                cost_per_percent_on_time=float("inf"),
                completed_on_time=0,
                total_tasks=10,
                per_type_completion_percent=(0.0,),
            )
        )
        series.trials.append(
            TrialMetrics(
                robustness_percent=50.0,
                fairness_variance=0.0,
                total_cost=1.0,
                cost_per_percent_on_time=0.02,
                completed_on_time=5,
                total_tasks=10,
                per_type_completion_percent=(50.0,),
            )
        )
        assert series.cost_per_percent().mean == pytest.approx(0.02)
        assert np.isfinite(series.cost_per_percent().mean)
