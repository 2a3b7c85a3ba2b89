"""End-to-end instrumentation: CLI flags, serve admission and sweep."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.heuristics.registry import make_heuristic
from repro.obs import Telemetry, use_telemetry
from repro.pet.builders import build_pet_from_means
from repro.serve.service import SchedulerCore
from repro.sweep import HeuristicSpec, PETSpec, SweepPoint, SweepSpec, run_sweep
from repro.workload.generator import WorkloadConfig
from repro.workload.spec import TaskSpec


@pytest.fixture(scope="module")
def tiny_fast_pet():
    means = [[20.0, 35.0], [45.0, 25.0]]
    return build_pet_from_means(
        means,
        task_types=["t0", "t1"],
        machine_names=["m0", "m1"],
        rng=7,
        n_samples=60,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_simulate_obs_flags_write_loadable_artifacts(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    snap_path = tmp_path / "snap.json"
    exit_code = main(
        [
            "simulate",
            "--tasks", "60",
            "--span", "400",
            "--obs-trace", str(trace_path),
            "--obs-snapshot", str(snap_path),
        ]
    )
    assert exit_code == 0
    document = json.loads(trace_path.read_text())
    names = {e["name"] for e in document["traceEvents"]}
    assert any(n.startswith("engine.mapping_event.") for n in names)
    assert any(n.startswith("kernel.") for n in names)
    assert "score_table.fill" in names
    snap = json.loads(snap_path.read_text())
    assert snap["counters"]["engine.events.arrival"] == 60
    err = capsys.readouterr().err
    assert "wrote obs trace" in err and "wrote obs snapshot" in err


def test_cli_without_obs_flags_writes_nothing(tmp_path, capsys):
    assert main(["simulate", "--tasks", "40", "--span", "300"]) == 0
    assert "wrote obs" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# Serve admission
# ----------------------------------------------------------------------
def test_scheduler_core_records_admission_spans(tiny_fast_pet):
    tel = Telemetry()
    with use_telemetry(tel):
        heuristic = make_heuristic("MM", num_task_types=tiny_fast_pet.num_task_types)
        core = SchedulerCore(tiny_fast_pet, heuristic, rng=5)
        core.submit(TaskSpec(arrival=5, task_id=1, task_type=0, deadline=400))
        core.submit(TaskSpec(arrival=9, task_id=2, task_type=1, deadline=420))
        with pytest.raises(ValueError):
            core.submit(TaskSpec(arrival=9, task_id=2, task_type=1, deadline=420))
        core.close()
    assert tel.counters["serve.submitted"] == 2
    assert tel.counters["serve.rejected"] == 1
    admission = [s for s in tel.spans if s[0] == "serve.admission"]
    assert len(admission) == 2
    assert admission[0][3]["task"] == 1


def test_scheduler_core_untraced_matches_traced(tiny_fast_pet):
    def run(tel):
        heuristic = make_heuristic("MM", num_task_types=tiny_fast_pet.num_task_types)
        with use_telemetry(tel):
            core = SchedulerCore(tiny_fast_pet, heuristic, rng=5)
            decisions = []
            for spec in (
                TaskSpec(arrival=5, task_id=1, task_type=0, deadline=400),
                TaskSpec(arrival=9, task_id=2, task_type=1, deadline=420),
                TaskSpec(arrival=50, task_id=3, task_type=0, deadline=500),
            ):
                decisions.extend(core.submit(spec))
            decisions.extend(core.close())
        return [(d.seq, d.task_id, d.action, d.time, d.machine) for d in decisions]

    assert run(None) == run(Telemetry())


# ----------------------------------------------------------------------
# Sweep executor + cache
# ----------------------------------------------------------------------
def test_sweep_records_cache_counters_and_trial_spans(tmp_path):
    point = SweepPoint(
        label="obs-sweep",
        pet=PETSpec(kind="spec", seed=5),
        heuristic=HeuristicSpec(name="MM"),
        workload=WorkloadConfig(num_tasks=30, time_span=300, beta=1.5),
        config=ExperimentConfig(trials=1, seed=5, warmup_tasks=0, cooldown_tasks=0),
    )
    spec = SweepSpec(points=(point,))
    tel = Telemetry()
    with use_telemetry(tel):
        run_sweep(spec, cache_dir=tmp_path / "cache")
    assert tel.counters["sweep.cache_misses"] == 1
    assert tel.counters["sweep.trials_executed"] == 1
    assert any(s[0] == "sweep.point" for s in tel.spans)
    assert any(s[0] == "sweep.trial" for s in tel.spans)

    warm = Telemetry()
    with use_telemetry(warm):
        run_sweep(spec, cache_dir=tmp_path / "cache")
    assert warm.counters["sweep.cache_hits"] == 1
    assert "sweep.trials_executed" not in warm.counters
