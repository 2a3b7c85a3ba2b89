"""The ``sweep-fig7`` workload: a Figure-7-shaped grid through ``run_sweep``.

{PAMF, PAM, MM, MSD, MMU, MOC} x {19k, 34k} x one trial = 12 trials: the
only workload covering the four baseline mappers (the expected-completion
ScoreTable path), the ``ResultCache`` and the process fan-out.  Each level
keeps its offered load but runs a quarter of its arrival window (tasks and
time span both divided by ``WINDOW_DIVISOR``), so a run holds several cold
sweeps instead of one.  A ledger workload (``run``, ``compare``), not one the
``BENCHMARK.json`` driver holds to a bound: see
``metrics.LEDGER_ONLY_WORKLOADS``.

Cold sweeps (fresh cache directory each) are engine-bound and give all three
timing metrics: ``tasks_per_s`` over the whole sweep, ``latency_p50_ms`` /
``latency_p90_ms`` over the walls of its 12 points (what the progress line
of a sweep waits per point; the tail is the two PAMF/PAM ``34k`` points).
They run ``jobs=1``: the points then finish in grid order, so point *i* is
the same piece of work in every cold sweep and its fastest time can be taken
across them (``common.floor``).  A two-worker pool on this two-core host
needs both cores undisturbed for the whole sweep and hands the trials out in
an order that changes from run to run, so its wall cannot be cut into
comparable pieces; best-of-5 of it still moved by 20% between runs of one
commit.  The ``jobs=2`` sweep therefore runs once, beside the traced
repetition: it must produce the serial outcome, and its wall goes to the run
record (``trials_per_s_cold_jobs2``, ``sweep.parallel_efficiency``).

Warm reruns over the filled cache are cache-bound; one rerun is ~2 ms of
file reads and every rerun is the same work, so its tail is the shared
host's jitter (15-20% between same-seed runs on the p90 even as the fastest
of 15-30 blocks).  One block of them follows the last cold sweep: checked
(warm == cold) and recorded (``warm_rerun_p50_ms``, ``warm_trials_per_s``);
the cache layer's own numbers are ``sweep.cache_load_us`` /
``sweep.cache_store_us``.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

from . import RESULTS_DIR, tracing
from .common import (
    PET_SEED,
    TAIL,
    Options,
    Outcome,
    Sample,
    best_time,
    floor,
    floor_sample,
    peak_rss_mb,
    percentile,
    signature,
)

HEURISTICS = ("PAMF", "PAM", "MM", "MSD", "MMU", "MOC")
LEVELS = ("19k", "34k")
#: Workers of the one process-pool sweep.
JOBS = 2
WINDOW_DIVISOR = 4
MIN_COLD_RUNS = 3
#: All-cache-hit reruns on the cache the last cold run filled (~0.2 s).
WARM_RERUNS = 100


def build_spec(options: Options):
    """The sweep grid, and the seconds its set-up took.

    Set-up is what a sweep pays before its first trial: describing the grid
    and building the PET it names (each worker process builds its own).
    """
    from dataclasses import replace

    from repro.experiments.config import ExperimentConfig, workload_for_level
    from repro.sweep import HeuristicSpec, PETSpec, SweepSpec

    start = time.perf_counter()
    PETSpec(kind="spec", seed=PET_SEED).build()
    config = ExperimentConfig(
        trials=1,
        seed=options.seed,
        warmup_tasks=0,
        cooldown_tasks=0,
        kernel_backend=options.kernel_backend,
    )
    heuristics = ("PAMF", "MM") if options.smoke else HEURISTICS
    levels = ("34k",) if options.smoke else LEVELS
    workloads = {}
    for level in levels:
        full = workload_for_level(level, config)
        workloads[level] = replace(
            full,
            num_tasks=full.num_tasks // WINDOW_DIVISOR,
            time_span=full.time_span // WINDOW_DIVISOR,
        )
    spec = SweepSpec.from_grid(
        pet=PETSpec(kind="spec", seed=PET_SEED),
        heuristics={name: HeuristicSpec(name) for name in heuristics},
        workloads=workloads,
        config=config,
    )
    return spec, time.perf_counter() - start


def fresh_cache_dir() -> tuple[Path, float]:
    start = time.perf_counter()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="sweep-", dir=RESULTS_DIR))
    return path, time.perf_counter() - start


def outcome_signature(trials_per_point) -> str:
    return signature(
        {
            index: repr([trial.to_payload() for trial in trials])
            for index, trials in enumerate(trials_per_point)
        }
    )


def mean_robustness(trials_per_point) -> float:
    series = [sum(t.robustness_percent for t in trials) / len(trials) for trials in trials_per_point]
    return sum(series) / len(series)


def cold_sweep(spec, *, jobs: int):
    """One ``run_sweep`` on a fresh cache; the outcome, the gaps between point
    completions (the last gap ends at the return) and the filled cache."""
    from repro.sweep import run_sweep

    cache_dir, mkdir_s = fresh_cache_dir()
    stamps = [time.perf_counter_ns()]
    try:
        outcome = run_sweep(
            spec,
            jobs=jobs,
            cache_dir=cache_dir,
            progress=lambda report: stamps.append(time.perf_counter_ns()),
        )
    except BaseException:
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise
    stamps.append(time.perf_counter_ns())
    gaps_s = [(b - a) * 1e-9 for a, b in zip(stamps, stamps[1:])]
    return outcome, gaps_s, cache_dir, mkdir_s


def measure(name: str, options: Options) -> Outcome:
    from repro.sweep import run_sweep

    spec, _ = build_spec(options)
    total_trials = spec.total_trials
    total_tasks = sum(p.workload.num_tasks * p.config.trials for p in spec.points)
    setups, cold_gaps, colds = [], [], []
    cache_dir = None
    deadline = time.perf_counter() + options.seconds
    try:
        while True:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
            # Set-up is redone before every cold run, like a fresh invocation.
            _, spec_s = build_spec(options)
            cold, gaps_s, cache_dir, mkdir_s = cold_sweep(spec, jobs=1)
            setups.append(spec_s + mkdir_s)
            colds.append(cold)
            cold_gaps.append(gaps_s)
            if options.smoke or (
                len(colds) >= MIN_COLD_RUNS and time.perf_counter() >= deadline
            ):
                break
        # All-cache-hit reruns on the cache the last cold sweep filled.
        warm_ms = []
        for _ in range(10 if options.smoke else WARM_RERUNS):
            start = time.perf_counter()
            warm = run_sweep(spec, jobs=1, cache_dir=cache_dir)
            warm_ms.append((time.perf_counter() - start) * 1e3)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    outcome = Outcome(attempted=total_trials * len(colds))
    outcome.failed = sum(
        total_trials - sum(len(trials) for trials in c.trials_per_point) for c in colds
    )
    signatures = {outcome_signature(c.trials_per_point) for c in colds}
    outcome.checks = {
        "cold_runs_execute_every_trial": all(
            c.executed_trials == total_trials and c.cache_hits == 0 for c in colds
        ),
        "points_finish_in_grid_order": all(
            [report.index for report in c.reports] == list(range(len(spec.points)))
            for c in colds
        ),
        "warm_rerun_hits_every_point": warm.cache_hits == len(spec.points)
        and warm.executed_trials == 0,
        "warm_equals_cold": outcome_signature(warm.trials_per_point) in signatures,
        "counts_repeat_exactly": len(signatures) == 1,
    }
    cold_walls = [sum(gaps_s) for gaps_s in cold_gaps]

    def point_ms(gaps_s):
        # The last gap (final completion to the return) belongs to no point.
        return [gap_s * 1e3 for gap_s in gaps_s[: len(spec.points)]]

    outcome.metrics = {
        "tasks_per_s": floor_sample("1/s", cold_gaps, lambda gaps_s: total_tasks / sum(gaps_s)),
        # Twelve points in two clusters (the ``19k`` and the ``34k`` ones): the
        # median proper, not a nearest rank that lands on either side of the gap.
        "latency_p50_ms": floor_sample(
            "ms", cold_gaps, lambda gaps_s: statistics.median(point_ms(gaps_s))
        ),
        "latency_p90_ms": floor_sample(
            "ms", cold_gaps, lambda gaps_s: percentile(point_ms(gaps_s), TAIL)
        ),
        "robustness_pct": Sample(mean_robustness(cold.trials_per_point), "%"),
        "peak_rss_mb": Sample(peak_rss_mb(children=True), "MiB"),
        "setup_s": best_time("s", setups),
    }
    cold_floor_s = sum(floor(cold_gaps))
    outcome.info = {
        "tasks": total_tasks,
        "trials": total_trials,
        "cold_wall_s": cold_walls,
        "warm_reruns": len(warm_ms),
        "warm_rerun_p50_ms": percentile(warm_ms, 50),
        "signature": outcome_signature(cold.trials_per_point),
        "series_robustness_pct": {
            point.label: trials[0].robustness_percent
            for point, trials in zip(spec.points, cold.trials_per_point)
        },
        "sweep.cache_hits": float(warm.cache_hits),
        "sweep.cache_misses": float(cold.cache_misses),
        "trials_per_s_cold": total_trials / cold_floor_s,
        "warm_trials_per_s": total_trials / (percentile(warm_ms, 50) * 1e-3),
    }
    return outcome


def trace_layers(name: str, options: Options) -> Outcome:
    """The same points, serial and in process: ``execute_point``, then traced;
    and once through the ``jobs=2`` process pool."""
    from repro.obs.telemetry import Telemetry, use_telemetry
    from repro.simulator.engine import SimulatorConfig
    from repro.sweep import execute_point, execute_trial, pet_for

    spec, _ = build_spec(options)
    serial, point_s = [], []
    for point in spec.points:
        start = time.perf_counter()
        serial.append(execute_point(point))
        point_s.append(time.perf_counter() - start)

    telemetry = Telemetry()
    heuristics: list[tracing.TimedHeuristic] = []
    traced = []
    with use_telemetry(telemetry):
        start = time.perf_counter_ns()
        for point in spec.points:
            pet = pet_for(point.pet)
            config = point.config
            trials = []
            for trial_seed in point.trial_seeds():
                heuristic = tracing.TimedHeuristic(
                    point.heuristic.build(pet.num_task_types), telemetry
                )
                heuristics.append(heuristic)
                trials.append(
                    execute_trial(
                        pet=pet,
                        heuristic=heuristic,
                        workload=point.workload,
                        trial_seed=trial_seed,
                        sim_config=SimulatorConfig(
                            queue_capacity=config.queue_capacity,
                            max_impulses=config.max_impulses,
                            evict_executing_at_deadline=point.evict_executing_at_deadline,
                            batch_window=config.batch_window,
                            kernel_backend=config.kernel_backend,
                        ),
                        machine_prices=point.machine_prices,
                        warmup=config.warmup_tasks,
                        cooldown=config.cooldown_tasks,
                    )
                )
            traced.append(trials)
        wall_ns = time.perf_counter_ns() - start
        telemetry.add_span(tracing.ROOT_SPAN, start, wall_ns)

    # The process fan-out, once: same outcome, and its wall for the record.
    pooled, pooled_gaps, cache_dir, _ = cold_sweep(spec, jobs=JOBS)
    shutil.rmtree(cache_dir, ignore_errors=True)

    total_tasks = sum(p.workload.num_tasks * p.config.trials for p in spec.points)
    outcome = Outcome(attempted=2 * spec.total_trials)
    outcome.failed = 2 * spec.total_trials - sum(
        len(trials) for trials in (*traced, *pooled.trials_per_point)
    )
    outcome.checks = {
        "traced_equals_untraced": outcome_signature(traced) == outcome_signature(serial),
        "pooled_equals_serial": pooled.executed_trials == spec.total_trials
        and outcome_signature(pooled.trials_per_point) == outcome_signature(serial),
    }
    layers = tracing.layer_metrics(
        telemetry, heuristics, tasks=total_tasks, untraced_s=sum(point_s)
    )
    layers["sweep.trial_s_p50"] = percentile(
        [wall / point.config.trials for wall, point in zip(point_s, spec.points)], 50
    )
    layers["sweep.serial_s"] = sum(point_s)
    layers["sweep.parallel_efficiency"] = sum(point_s) / (JOBS * sum(pooled_gaps))
    outcome.info = {
        "telemetry": telemetry,
        "layers": layers,
        "traced_wall_s": wall_ns * 1e-9,
        "signature": outcome_signature(serial),
        "trials_per_s_cold_jobs2": spec.total_trials / sum(pooled_gaps),
    }
    return outcome
