"""Tests for the local trial runner and the executor's backend seam.

The load-bearing guarantee: every ``jobs`` setting produces bit-identical
``TrialMetrics`` for the same :class:`SweepSpec`, because trials always run
through the same seeded entry point whether they run in-process or in a
pool.  On top of that, the executor's interrupt path must flush every point
whose trials all finished to the result cache before the interrupt
propagates, and must leave no pool worker running.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import shutil
import time

import pytest

from repro.experiments.config import ExperimentConfig, workload_for_level
from repro.sweep import (
    HeuristicSpec,
    LocalBackend,
    ParallelExecutor,
    PETSpec,
    ResultCache,
    SweepPoint,
    SweepSpec,
    TrialResult,
    TrialTask,
    run_sweep,
)
from repro.sweep import executor as executor_module


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(
        trials=2, seed=47, warmup_tasks=5, cooldown_tasks=5, task_scale=0.1
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


def _record_in_process_calls(monkeypatch) -> list[str]:
    """Patch the trial entry point to log calls made in *this* process."""
    real = executor_module._execute_point_trial
    calls: list[str] = []

    def recording(point, trial_index):
        calls.append(point.label)
        return real(point, trial_index)

    monkeypatch.setattr(executor_module, "_execute_point_trial", recording)
    return calls


class TestLocalBackend:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            LocalBackend(0)

    def test_jobs_1_runs_in_process_in_submit_order(self, spec, monkeypatch):
        calls = _record_in_process_calls(monkeypatch)
        backend = LocalBackend(1)
        tasks = [
            TrialTask(point_index=i, point=point, trial_index=0)
            for i, point in enumerate(spec.points)
        ]
        backend.submit_trials(tasks)
        results = list(backend.drain_results())
        backend.close()
        assert calls == [point.label for point in spec.points]
        assert [r.point_index for r in results] == [0, 1]

    def test_pool_is_sized_by_pending_trials(self, spec, monkeypatch):
        """A warm rerun with one missing trial forks no pool, whatever ``jobs``."""
        calls = _record_in_process_calls(monkeypatch)
        one = LocalBackend(8)
        one.submit_trials([TrialTask(point_index=0, point=spec.points[0], trial_index=0)])
        assert one.workers == 1
        [result] = one.drain_results()
        one.close()
        assert calls == [spec.points[0].label]
        assert result.trial_index == 0

        three = LocalBackend(8)
        tasks = [
            TrialTask(point_index=i, point=point, trial_index=t)
            for i, point in enumerate(spec.points)
            for t in range(point.config.trials)
        ][:3]
        three.submit_trials(tasks)
        try:
            assert three.workers == 3
            finished = {(r.point_index, r.trial_index) for r in three.drain_results()}
            assert finished == {(t.point_index, t.trial_index) for t in tasks}
        finally:
            three.close()
        assert calls == [spec.points[0].label]  # the three ran in the pool

    def test_empty_submission_yields_nothing(self):
        backend = LocalBackend(4)
        backend.submit_trials([])
        assert backend.workers == 1
        assert list(backend.drain_results()) == []
        assert backend.cancel() == []
        backend.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_close_is_idempotent(self, spec, jobs):
        backend = LocalBackend(jobs)
        backend.submit_trials(
            [TrialTask(point_index=0, point=spec.points[0], trial_index=t) for t in range(2)]
        )
        assert len(list(backend.drain_results())) == 2
        backend.close()
        backend.close()
        assert backend.cancel() == []

    def test_warm_rerun_missing_one_trial_forks_no_pool(
        self, tmp_path, spec, serial_outcome, monkeypatch
    ):
        """The executor sizes its runner by the trials the cache is missing."""
        run_sweep(SweepSpec(points=spec.points[:1]), cache_dir=tmp_path)
        one_trial = dataclasses.replace(
            spec.points[1],
            config=dataclasses.replace(spec.points[1].config, trials=1),
        )
        sized: list[int] = []

        class RecordingBackend(LocalBackend):
            def submit_trials(self, tasks):
                super().submit_trials(tasks)
                sized.append(self.workers)

        monkeypatch.setattr(executor_module, "LocalBackend", RecordingBackend)
        outcome = run_sweep(
            SweepSpec(points=(spec.points[0], one_trial)), jobs=8, cache_dir=tmp_path
        )
        assert sized == [1]
        assert outcome.executed_trials == 1
        assert outcome.trials_per_point[0] == serial_outcome.trials_per_point[0]

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_pool_matches_jobs_1(self, spec, serial_outcome, jobs):
        outcome = run_sweep(spec, jobs=jobs)
        assert outcome.trials_per_point == serial_outcome.trials_per_point
        assert outcome.executed_trials == spec.total_trials

    def test_jobs_is_not_part_of_the_content_address(self, tmp_path, spec, serial_outcome):
        run_sweep(spec, jobs=1, cache_dir=tmp_path)
        rerun = run_sweep(spec, jobs=2, cache_dir=tmp_path)
        assert rerun.executed_trials == 0
        assert rerun.cache_hits == len(spec.points)
        assert rerun.trials_per_point == serial_outcome.trials_per_point


class TestMergedShardCaches:
    def test_disjoint_shards_merged_by_copying_serve_every_point(
        self, tmp_path, spec, serial_outcome
    ):
        """Split a reproduction across machines: each shard runs its own
        points into its own cache; the copied-together directory serves the
        whole spec without running a trial."""
        for index, point in enumerate(spec.points):
            run_sweep(SweepSpec(points=(point,)), jobs=2, cache_dir=tmp_path / f"shard-{index}")
        merged = tmp_path / "merged"
        for index in range(len(spec.points)):
            shutil.copytree(tmp_path / f"shard-{index}", merged, dirs_exist_ok=True)
        rerun = run_sweep(spec, cache_dir=merged)
        assert rerun.executed_trials == 0
        assert rerun.cache_hits == len(spec.points)
        assert rerun.trials_per_point == serial_outcome.trials_per_point


class _InterruptingBackend:
    """Yields the results it was given, then raises ``KeyboardInterrupt``;
    the held-back results become the cancel() harvest."""

    def __init__(self, yield_before_interrupt: int) -> None:
        self.yield_before_interrupt = yield_before_interrupt
        self._results: list[TrialResult] = []
        self.cancelled = False
        self.closed = False

    def submit_trials(self, tasks) -> None:
        from repro.sweep.executor import _execute_point_trial

        self._results = [
            TrialResult(
                point_index=task.point_index,
                trial_index=task.trial_index,
                metrics=_execute_point_trial(task.point, task.trial_index),
            )
            for task in tasks
        ]

    def drain_results(self):
        yield from self._results[: self.yield_before_interrupt]
        raise KeyboardInterrupt

    def cancel(self):
        self.cancelled = True
        return self._results[self.yield_before_interrupt :]

    def close(self) -> None:
        self.closed = True


class TestGracefulInterrupt:
    def test_interrupt_flushes_completed_points_to_cache(self, tmp_path, spec):
        """Ctrl-C mid-sweep: outstanding work is cancelled and every point
        whose trials all finished is in the cache when the interrupt lands."""
        backend = _InterruptingBackend(yield_before_interrupt=spec.total_trials)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(cache=cache, backend=backend).run(spec)
        assert backend.cancelled and backend.closed
        assert cache.stats.stores == len(spec.points)
        for point in spec.points:
            assert cache.load(point) is not None

    def test_interrupt_harvests_undrained_results(self, tmp_path, spec):
        """Results that finished but were never drained still reach the cache
        via the cancel() harvest."""
        backend = _InterruptingBackend(yield_before_interrupt=1)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(cache=cache, backend=backend).run(spec)
        assert cache.stats.stores == len(spec.points)

    def test_interrupted_sweep_resumes_from_cache(self, tmp_path, spec, serial_outcome):
        backend = _InterruptingBackend(yield_before_interrupt=1)
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(cache=ResultCache(tmp_path), backend=backend).run(spec)
        resumed = run_sweep(spec, cache_dir=tmp_path)
        assert resumed.executed_trials == 0
        assert resumed.trials_per_point == serial_outcome.trials_per_point

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the slow trial is patched in before the pool forks",
    )
    def test_interrupt_kills_pool_workers_running_abandoned_trials(
        self, tmp_path, spec, monkeypatch
    ):
        """Ctrl-C on a ``jobs > 1`` sweep returns at once: the workers still
        running abandoned trials are gone when the sweep unwinds, and the
        points that finished before the interrupt are in the cache."""
        real = executor_module._execute_point_trial

        def slow_for_one_point(point, trial_index):
            if point.label == "slow":
                time.sleep(60)
            return real(point, trial_index)

        monkeypatch.setattr(executor_module, "_execute_point_trial", slow_for_one_point)
        slow = dataclasses.replace(
            spec.points[0], label="slow", heuristic=HeuristicSpec("MOC")
        )
        slow_spec = SweepSpec(points=spec.points + (slow,))
        fast_labels = {point.label for point in spec.points}
        reported: set[str] = set()

        def interrupt_once_fast_points_finish(report):
            reported.add(report.label)
            if reported >= fast_labels:
                raise KeyboardInterrupt

        children_before = set(multiprocessing.active_children())
        cache = ResultCache(tmp_path)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(
                jobs=2, cache=cache, progress=interrupt_once_fast_points_finish
            ).run(slow_spec)
        assert time.monotonic() - started < 30.0
        assert set(multiprocessing.active_children()) <= children_before
        for point in spec.points:
            assert cache.load(point) is not None
        assert cache.load(slow) is None


    def test_interrupt_inside_an_in_process_trial(self, tmp_path, spec, monkeypatch):
        """Ctrl-C while ``jobs=1`` runs a trial: the points finished before it
        are cached, and the rerun executes only the interrupted point."""
        real = executor_module._execute_point_trial

        def interrupted_on_pam(point, trial_index):
            if point.label == "PAM":
                raise KeyboardInterrupt
            return real(point, trial_index)

        monkeypatch.setattr(executor_module, "_execute_point_trial", interrupted_on_pam)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        assert cache.load(spec.points[0]) is not None
        assert cache.load(spec.points[1]) is None

        monkeypatch.setattr(executor_module, "_execute_point_trial", real)
        resumed = run_sweep(spec, cache_dir=tmp_path)
        assert resumed.executed_trials == spec.points[1].config.trials

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_error_propagates_and_leaves_no_worker(
        self, tmp_path, spec, monkeypatch, jobs
    ):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the failing trial is patched in before the pool forks")
        real = executor_module._execute_point_trial

        def failing_for_one_point(point, trial_index):
            if point.label == "bad":
                raise ValueError("bad trial")
            return real(point, trial_index)

        monkeypatch.setattr(executor_module, "_execute_point_trial", failing_for_one_point)
        bad = dataclasses.replace(spec.points[0], label="bad", heuristic=HeuristicSpec("MOC"))
        children_before = set(multiprocessing.active_children())
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="bad trial"):
            run_sweep(SweepSpec(points=spec.points + (bad,)), jobs=jobs, cache=cache)
        assert set(multiprocessing.active_children()) <= children_before
        assert cache.load(bad) is None
        if jobs == 1:  # in submit order, so every earlier point finished
            assert all(cache.load(point) is not None for point in spec.points)


class TestDuplicateContentAddresses:
    def test_points_sharing_a_content_address_all_receive_results(self, config):
        """Labels are excluded from cache keys, so a grid can contain points
        with identical content addresses; a pool sweep must populate every
        such point (not just the last one submitted)."""
        pet = PETSpec(kind="spec", seed=config.seed)
        workload = workload_for_level("34k", config)
        twins = SweepSpec(
            points=tuple(
                SweepPoint(
                    label=label,
                    pet=pet,
                    heuristic=HeuristicSpec("MM"),
                    workload=workload,
                    config=config,
                )
                for label in ("twin-a", "twin-b")
            )
        )
        assert twins.points[0].cache_key() == twins.points[1].cache_key()
        serial = run_sweep(twins, jobs=1)
        outcome = run_sweep(twins, jobs=2)
        assert outcome.trials_per_point == serial.trials_per_point
        assert all(outcome.trials_per_point)  # both twins populated
