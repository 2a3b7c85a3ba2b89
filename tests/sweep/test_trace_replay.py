"""Trace replay through the sweep pipeline: determinism, caching, fig9.

The contract of trace-backed sweep points:

* replaying the same trace file is **bit-identical** for every ``jobs``
  setting (the workers resolve the same file and the execution streams
  derive from the same spawned seeds);
* a rerun against the same cache directory executes **zero** simulations;
* the cache key folds the trace's *canonical content hash* — editing any
  task invalidates cached results, reformatting the JSON does not;
* the Figure 9 driver runs end to end from the shipped 660-task reference
  trace and an immediate rerun is served entirely from the result cache.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import TRACE_LEVEL_LABEL, run_fig9
from repro.sweep import (
    HeuristicSpec,
    PETSpec,
    SweepPoint,
    SweepSpec,
    TraceSpec,
    run_sweep,
)
from repro.sweep.cache import ResultCache
from repro.workload.generator import WorkloadConfig
from repro.workload.traces import file_content_hash, save_trace, trace_content_hash
from repro.workload.transcoding import (
    REFERENCE_TRACE_TASKS,
    build_named_trace,
    reference_transcoding_trace,
)

REFERENCE_TRACE = (
    Path(__file__).resolve().parents[2] / "examples" / "transcoding_660.trace.json"
)


@pytest.fixture
def small_trace_file(tmp_path) -> Path:
    """A 40-task transcoding-shaped trace saved to disk."""
    trace = build_named_trace("transcoding-660", seed=5, num_tasks=40)
    return save_trace(trace, tmp_path / "small.trace.json")


def replay_spec(path: Path, *, trials: int = 2, seed: int = 2019) -> SweepSpec:
    config = ExperimentConfig(trials=trials, seed=seed, warmup_tasks=5, cooldown_tasks=5)
    return SweepSpec.from_traces(
        pet=PETSpec(kind="transcoding", seed=seed),
        heuristics={name: HeuristicSpec(name=name) for name in ("PAMF", "MM")},
        traces={"replay": TraceSpec(path=str(path))},
        config=config,
    )


class TestSpecValidation:
    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one of path or builder"):
            TraceSpec()
        with pytest.raises(ValueError, match="exactly one of path or builder"):
            TraceSpec(path="x.json", builder="transcoding-660")

    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError, match="unknown trace builder"):
            TraceSpec(builder="no-such-builder")

    def test_point_requires_workload_or_trace(self):
        config = ExperimentConfig(trials=1)
        pet = PETSpec(kind="transcoding")
        heuristic = HeuristicSpec(name="MM")
        with pytest.raises(ValueError, match="exactly one of workload or trace"):
            SweepPoint(
                label="x", pet=pet, heuristic=heuristic, workload=None, config=config
            )
        workload = WorkloadConfig(num_tasks=10, time_span=100)
        with pytest.raises(ValueError, match="exactly one of workload or trace"):
            SweepPoint(
                label="x",
                pet=pet,
                heuristic=heuristic,
                workload=workload,
                config=config,
                trace=TraceSpec(builder="transcoding-660"),
            )

    def test_builder_fingerprint_is_declarative(self):
        spec = TraceSpec(builder="transcoding-660", seed=7, num_tasks=33)
        assert spec.fingerprint() == {
            "builder": "transcoding-660",
            "seed": 7,
            "num_tasks": 33,
        }


class TestReplayDeterminism:
    def test_jobs1_and_jobs2_bit_identical(self, small_trace_file):
        spec = replay_spec(small_trace_file)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert serial.trials_per_point == parallel.trials_per_point

    def test_every_heuristic_replays_identical_arrivals(self, small_trace_file):
        """Paired replay: both points resolve the same trace object."""
        from repro.sweep.executor import trace_for

        spec = replay_spec(small_trace_file)
        traces = {trace_for(point.trace) is not None for point in spec}
        assert traces == {True}
        resolved = [trace_for(point.trace) for point in spec]
        assert all(list(t) == list(resolved[0]) for t in resolved)

    def test_trace_for_sees_in_place_file_edits(self, small_trace_file):
        """An edited file must never be served stale from the resolver memo.

        A stale resolve would pair OLD arrivals with the NEW content hash
        in the cache key — permanently wrong cached results.
        """
        import os

        from repro.sweep.executor import trace_for

        spec = TraceSpec(path=str(small_trace_file))
        before = trace_for(spec)
        payload = json.loads(small_trace_file.read_text())
        payload["tasks"][0]["deadline"] += 5
        small_trace_file.write_text(json.dumps(payload))
        # Guard against same-granularity mtime on coarse filesystems.
        stat = small_trace_file.stat()
        os.utime(small_trace_file, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        after = trace_for(spec)
        assert after[0].deadline == before[0].deadline + 5

    def test_incompatible_trace_fails_in_execute_layer(self, tmp_path):
        """Programmatic from_traces path fails fast, not with an IndexError."""
        from repro.workload.generator import WorkloadTrace
        from repro.workload.spec import TaskSpec

        specs = tuple(
            TaskSpec(arrival=i, task_id=i, task_type=i % 7, deadline=i + 50)
            for i in range(14)
        )
        trace = WorkloadTrace(
            specs, WorkloadConfig(num_tasks=14, time_span=100), num_task_types=7
        )
        path = save_trace(trace, tmp_path / "wide.trace.json")
        spec = replay_spec(path, trials=1)
        with pytest.raises(ValueError, match="7 task types"):
            run_sweep(spec, jobs=1)


class TestReplayCaching:
    def test_rerun_served_entirely_from_cache(self, small_trace_file, tmp_path):
        spec = replay_spec(small_trace_file)
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(spec, cache=cache)
        assert first.executed_trials > 0
        second = run_sweep(spec, cache=cache)
        assert second.executed_trials == 0
        assert second.cache_hits == len(spec)
        assert second.trials_per_point == first.trials_per_point

    def test_cache_key_folds_trace_content_hash(self, small_trace_file, tmp_path):
        point = replay_spec(small_trace_file).points[0]
        original_key = point.cache_key()

        # Reformatting the file (key order, indentation) keeps the key.
        payload = json.loads(small_trace_file.read_text())
        reformatted = tmp_path / "reformatted.trace.json"
        reformatted.write_text(json.dumps(payload, sort_keys=True, indent=None))
        reformatted_point = replay_spec(reformatted).points[0]
        assert reformatted_point.cache_key() == original_key

        # Editing one task's deadline changes the key.
        payload["tasks"][3]["deadline"] += 1
        edited = tmp_path / "edited.trace.json"
        edited.write_text(json.dumps(payload))
        edited_point = replay_spec(edited).points[0]
        assert edited_point.cache_key() != original_key

    def test_synthetic_point_keys_unchanged_by_trace_field(self):
        """Adding the trace field must not invalidate pre-existing caches."""
        from repro.sweep.spec import point_payload

        config = ExperimentConfig(trials=1)
        point = SweepPoint(
            label="x",
            pet=PETSpec(kind="transcoding"),
            heuristic=HeuristicSpec(name="MM"),
            workload=WorkloadConfig(num_tasks=10, time_span=100),
            config=config,
        )
        assert "trace" not in point_payload(point)


class TestFig9FromReferenceTrace:
    def test_reference_trace_file_matches_builder(self):
        assert REFERENCE_TRACE.exists(), "shipped reference trace is missing"
        assert file_content_hash(REFERENCE_TRACE) == trace_content_hash(
            reference_transcoding_trace()
        )

    def test_fig9_runs_from_shipped_trace_and_rerun_hits_cache(
        self, tmp_path, monkeypatch
    ):
        config = ExperimentConfig(trials=1, warmup_tasks=20, cooldown_tasks=20)
        cache_dir = tmp_path / "cache"
        first = run_fig9(config, trace=REFERENCE_TRACE, cache_dir=cache_dir)
        assert {level for level, _ in first.series} == {TRACE_LEVEL_LABEL}
        for heuristic in ("PAMF", "MM"):
            robustness = first.series[(TRACE_LEVEL_LABEL, heuristic)].mean_robustness()
            assert 0.0 <= robustness <= 100.0

        # The rerun must never simulate: poison both execution paths.
        import repro.sweep.executor as executor_module

        def boom(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("rerun executed a simulation instead of using the cache")

        monkeypatch.setattr(executor_module, "execute_point", boom)
        monkeypatch.setattr(executor_module, "_execute_point_trial", boom)
        monkeypatch.setattr(
            executor_module.ParallelExecutor, "_run_pending", boom
        )
        second = run_fig9(config, trace=REFERENCE_TRACE, cache_dir=cache_dir)
        for key, series in first.series.items():
            assert second.series[key].mean_robustness() == series.mean_robustness()

    def test_incompatible_trace_rejected_before_simulating(self, tmp_path):
        """A trace with more task types than the transcoding PET fails fast."""
        from repro.workload.generator import WorkloadConfig as WC
        from repro.workload.generator import WorkloadTrace
        from repro.workload.spec import TaskSpec

        specs = tuple(
            TaskSpec(arrival=i, task_id=i, task_type=i % 7, deadline=i + 50)
            for i in range(14)
        )
        trace = WorkloadTrace(specs, WC(num_tasks=14, time_span=100), num_task_types=7)
        path = save_trace(trace, tmp_path / "spec_shaped.trace.json")
        with pytest.raises(ValueError, match="7 task types"):
            run_fig9(ExperimentConfig(trials=1), trace=path)

    def test_reference_trace_shape(self):
        trace = reference_transcoding_trace()
        assert len(trace) == REFERENCE_TRACE_TASKS
        assert trace.num_task_types == 4
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)
        # Burstiness: tasks share arrival ticks well below 1:1.
        assert len(set(arrivals)) < 0.75 * len(arrivals)
        # Heavy tail: the slowest slack dwarfs the median.
        slacks = sorted(t.slack for t in trace)
        assert slacks[-1] > 3 * slacks[len(slacks) // 2]
