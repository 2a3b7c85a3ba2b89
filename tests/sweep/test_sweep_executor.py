"""Regression tests for the sweep executor.

The two guarantees the subsystem is built on:

* **Determinism** — ``jobs=1`` and ``jobs=4`` sweeps of the same
  :class:`SweepSpec` produce identical :class:`TrialMetrics`, and the serial
  path is byte-for-byte what :func:`execute_point` (one point in-process)
  computes.
* **Caching** — a second run of the same spec against the same cache
  executes zero simulations and returns identical results.
"""

from __future__ import annotations

import io
import math
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, workload_for_level
from repro.sweep import (
    HeuristicSpec,
    ParallelExecutor,
    PETSpec,
    PointReport,
    ResultCache,
    StreamReporter,
    SweepPoint,
    SweepSpec,
    execute_point,
    run_sweep,
)


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(
        trials=4, seed=31, warmup_tasks=5, cooldown_tasks=5, task_scale=0.15
    )


@pytest.fixture(scope="module")
def spec(config) -> SweepSpec:
    pet = PETSpec(kind="spec", seed=config.seed)
    workload = workload_for_level("34k", config)
    return SweepSpec(
        points=tuple(
            SweepPoint(
                label=name,
                pet=pet,
                heuristic=HeuristicSpec(name),
                workload=workload,
                config=config,
            )
            for name in ("MM", "PAM")
        )
    )


@pytest.fixture(scope="module")
def serial_outcome(spec):
    return run_sweep(spec, jobs=1)


class TestDeterminism:
    def test_serial_matches_execute_point(self, spec, serial_outcome):
        """The executor's serial path runs each point as ``execute_point`` does."""
        for point, trials in zip(spec.points, serial_outcome.trials_per_point):
            assert execute_point(point) == trials

    def test_jobs_1_equals_jobs_4(self, spec, serial_outcome):
        parallel = run_sweep(spec, jobs=4)
        assert parallel.trials_per_point == serial_outcome.trials_per_point
        assert parallel.executed_trials == spec.total_trials

    def test_naming_the_numpy_kernels_changes_no_trial(self, spec, serial_outcome):
        pinned = SweepSpec(
            points=tuple(
                replace(point, config=replace(point.config, kernel_backend="numpy"))
                for point in spec.points
            )
        )
        assert run_sweep(pinned, jobs=1).trials_per_point == serial_outcome.trials_per_point

    def test_series_wrapping(self, spec, serial_outcome):
        series = serial_outcome.series()
        assert [s.label for s in series] == ["MM", "PAM"]
        for s, trials in zip(series, serial_outcome.trials_per_point):
            assert s.trials == trials
            assert 0.0 <= s.mean_robustness() <= 100.0


class TestCaching:
    def test_warm_rerun_executes_zero_simulations(self, tmp_path, spec, serial_outcome):
        cold = run_sweep(spec, jobs=2, cache_dir=tmp_path)
        assert cold.executed_trials == spec.total_trials
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(spec.points)
        assert cold.trials_per_point == serial_outcome.trials_per_point

        warm = run_sweep(spec, jobs=2, cache_dir=tmp_path)
        assert warm.executed_trials == 0
        assert warm.cache_hits == len(spec.points)
        assert warm.cache_misses == 0
        assert warm.trials_per_point == cold.trials_per_point

        # The serial path reads the same cache.
        warm_serial = run_sweep(spec, jobs=1, cache_dir=tmp_path)
        assert warm_serial.executed_trials == 0
        assert warm_serial.trials_per_point == cold.trials_per_point

    def test_shared_cache_instance_accumulates_stats(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        run_sweep(spec, cache=cache)
        run_sweep(spec, cache=cache)
        assert cache.stats.hits == len(spec.points)
        assert cache.stats.stores == len(spec.points)


class TestProgress:
    def test_one_report_per_point_with_cache_flags(self, tmp_path, spec):
        seen = []
        run_sweep(spec, cache_dir=tmp_path, progress=seen.append)
        assert [r.cached for r in seen] == [False, False]
        seen.clear()
        run_sweep(spec, cache_dir=tmp_path, progress=seen.append)
        assert [r.cached for r in seen] == [True, True]
        assert [r.label for r in seen] == ["MM", "PAM"]
        assert all(r.trials == spec.points[0].config.trials for r in seen)
        assert all(0.0 <= r.mean_robustness <= 100.0 for r in seen)

    def test_reports_recorded_on_outcome(self, spec):
        outcome = run_sweep(spec)
        assert len(outcome.reports) == len(spec.points)
        assert {r.key for r in outcome.reports} == {p.cache_key() for p in spec.points}

    @pytest.mark.parametrize(
        ("cached", "seconds", "source"), [(False, 12.34, " 12.3s"), (True, 0.0, "cache")]
    )
    def test_stream_reporter_writes_one_aligned_line(self, cached, seconds, source):
        stream = io.StringIO()
        StreamReporter(stream)(
            PointReport(
                index=0,
                total=12,
                label="34k,PAM",
                key="k",
                cached=cached,
                trials=3,
                mean_robustness=61.5,
                seconds=seconds,
            )
        )
        assert stream.getvalue() == (
            f"[  1/12] {'34k,PAM':<32} robustness  61.50%  (3 trials, {source})\n"
        )

    def test_report_of_no_trials_has_nan_mean(self):
        report = PointReport.from_trials(
            [], index=0, total=1, label="x", key="k", cached=False, seconds=0.0
        )
        assert report.trials == 0
        assert math.isnan(report.mean_robustness)


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)

    def test_empty_spec_is_a_noop(self):
        outcome = run_sweep(SweepSpec())
        assert outcome.trials_per_point == []
        assert outcome.executed_trials == 0

    def test_series_map_is_strict(self, spec, serial_outcome):
        mapped = serial_outcome.series_map(["a", "b"])
        assert mapped["a"].trials == serial_outcome.trials_per_point[0]
        with pytest.raises(ValueError, match="keys"):
            serial_outcome.series_map(["only-one"])
