"""Execution of sweep specifications.

The executor is a thin frontend: it resolves cache hits, hands the
remaining trials to the local runner
(:class:`~repro.sweep.backends.LocalBackend`: in-process for one worker, a
process pool otherwise), reassembles per-point results in trial order, and
persists/streams them.  Every trial funnels into the same trial primitive
(:func:`repro.sweep.trial.execute_trial`) with seeds recomputed from spawn
position, so results are bit-identical for every ``jobs`` setting.

Per-point results are looked up in / persisted to the optional
content-addressed :class:`~repro.sweep.cache.ResultCache`, and one
:class:`~repro.sweep.progress.PointReport` is streamed per finished point.
A ``KeyboardInterrupt`` mid-sweep is handled gracefully: outstanding work
is cancelled, already-finished trials are harvested, and every point they
complete is flushed to the cache before the interrupt propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable

from ..obs.telemetry import active as obs_active
from ..simulator.engine import SimulatorConfig
from .backends import LocalBackend, TrialResult, TrialTask
from .cache import ResultCache
from .progress import PointReport, ProgressCallback
from .spec import (
    PETSpec,
    SweepPoint,
    SweepSpec,
    trace_for,
)
from .trial import TrialMetrics, execute_trial

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..experiments.config import ExperimentConfig
    from ..experiments.runner import SeriesResult
    from ..pet.matrix import PETMatrix

__all__ = [
    "SweepOutcome",
    "ParallelExecutor",
    "run_sweep",
    "execute_point",
    "pet_for",
    "trace_for",
]


@lru_cache(maxsize=16)
def pet_for(spec: PETSpec) -> "PETMatrix":
    """Per-process memo of built PET matrices (builders are deterministic)."""
    return spec.build()


def _sim_config_for(
    config: "ExperimentConfig", *, evict_executing_at_deadline: bool
) -> SimulatorConfig:
    return SimulatorConfig(
        queue_capacity=config.queue_capacity,
        max_impulses=config.max_impulses,
        evict_executing_at_deadline=evict_executing_at_deadline,
        batch_window=config.batch_window,
    )


def execute_point(point: SweepPoint) -> list[TrialMetrics]:
    """Run every trial of one point in-process, in trial order."""
    return [_execute_point_trial(point, k) for k in range(point.config.trials)]


def _execute_point_trial(point: SweepPoint, trial_index: int) -> TrialMetrics:
    """Worker entry point: run exactly one trial of one point.

    Recomputing ``spawn(trials)[trial_index]`` is deterministic in the
    master seed and the spawn position, so the streams match the serial
    loop's bit for bit regardless of which process runs which trial.
    """
    pet = pet_for(point.pet)
    trial_seed = point.trial_seeds()[trial_index]
    obs = obs_active()
    if obs.enabled:
        start_ns = time.perf_counter_ns()
    metrics = execute_trial(
        pet=pet,
        heuristic=point.heuristic.build(pet.num_task_types),
        workload=point.workload,
        trial_seed=trial_seed,
        sim_config=_sim_config_for(
            point.config,
            evict_executing_at_deadline=point.evict_executing_at_deadline,
        ),
        machine_prices=point.machine_prices,
        warmup=point.config.warmup_tasks,
        cooldown=point.config.cooldown_tasks,
        trace=trace_for(point.trace) if point.trace is not None else None,
    )
    if obs.enabled:
        obs.add_span(
            "sweep.trial",
            start_ns,
            time.perf_counter_ns() - start_ns,
            label=point.label,
            trial=trial_index,
        )
    return metrics


@dataclass
class SweepOutcome:
    """Results of one sweep run plus the bookkeeping the tests assert on."""

    points: tuple[SweepPoint, ...]
    trials_per_point: list[list[TrialMetrics]]
    #: Number of simulations actually executed (0 on a fully warm cache).
    executed_trials: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    reports: list[PointReport] = field(default_factory=list)

    def series(self) -> list["SeriesResult"]:
        """Wrap each point's trials into a labelled ``SeriesResult``."""
        from ..experiments.runner import SeriesResult  # runtime-only: avoids a cycle

        out = []
        for point, trials in zip(self.points, self.trials_per_point):
            series = SeriesResult(label=point.label)
            series.trials.extend(trials)
            out.append(series)
        return out

    def series_map(self, keys: Iterable[Hashable]) -> dict[Hashable, "SeriesResult"]:
        """Pair caller-supplied keys with the point series, strictly.

        The figure drivers key their result dicts by (level, heuristic)-style
        tuples; a length mismatch between their key list and the sweep's
        points is always a bug (e.g. a grid that deduplicated an input the
        key list did not), so it raises instead of silently truncating.
        """
        keys = list(keys)
        if len(keys) != len(self.points):
            raise ValueError(
                f"{len(keys)} keys supplied for {len(self.points)} sweep points"
            )
        return dict(zip(keys, self.series()))


class ParallelExecutor:
    """Drives a :class:`SweepSpec` to completion with caching and progress.

    Trials run on a :class:`~repro.sweep.backends.LocalBackend` with
    ``jobs`` workers; ``backend`` substitutes a ready-made one instead.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
        backend: LocalBackend | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.backend = backend

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepOutcome:
        started = time.perf_counter()
        points = spec.points
        outcome = SweepOutcome(
            points=points, trials_per_point=[[] for _ in points]
        )

        obs = obs_active()
        pending: list[int] = []
        for index, point in enumerate(points):
            cached = self.cache.load(point) if self.cache is not None else None
            if cached is not None:
                outcome.trials_per_point[index] = cached
                outcome.cache_hits += 1
                obs.count("sweep.cache_hits")
                self._report(outcome, index, cached=True, seconds=0.0)
            else:
                if self.cache is not None:
                    outcome.cache_misses += 1
                    obs.count("sweep.cache_misses")
                pending.append(index)

        if pending:
            self._run_pending(outcome, pending)

        outcome.seconds = time.perf_counter() - started
        return outcome

    # ------------------------------------------------------------------
    def _finish_point(
        self, outcome: SweepOutcome, index: int, trials: list[TrialMetrics], seconds: float
    ) -> None:
        outcome.trials_per_point[index] = trials
        outcome.executed_trials += len(trials)
        obs = obs_active()
        if obs.enabled:
            # The point already ran; reconstruct its span retrospectively
            # from the measured wall seconds so sweeps appear on the trace
            # timeline whether its trials ran in-process or in a pool.
            duration_ns = int(seconds * 1e9)
            obs.add_span(
                "sweep.point",
                time.perf_counter_ns() - duration_ns,
                duration_ns,
                label=outcome.points[index].label,
                trials=len(trials),
            )
            obs.count("sweep.trials_executed", len(trials))
        if self.cache is not None:
            self.cache.store(outcome.points[index], trials)
        self._report(outcome, index, cached=False, seconds=seconds)

    def _report(
        self, outcome: SweepOutcome, index: int, *, cached: bool, seconds: float
    ) -> None:
        point = outcome.points[index]
        report = PointReport.from_trials(
            outcome.trials_per_point[index],
            index=index,
            total=len(outcome.points),
            label=point.label,
            key=point.cache_key(),
            cached=cached,
            seconds=seconds,
        )
        outcome.reports.append(report)
        if self.progress is not None:
            self.progress(report)

    def _run_pending(self, outcome: SweepOutcome, pending: list[int]) -> None:
        points = outcome.points
        tasks = [
            TrialTask(point_index=index, point=points[index], trial_index=trial)
            for index in pending
            for trial in range(points[index].config.trials)
        ]
        started_at = {index: time.perf_counter() for index in pending}
        slots: dict[int, list[TrialMetrics | None]] = {
            index: [None] * points[index].config.trials for index in pending
        }
        remaining = {index: points[index].config.trials for index in pending}

        def record(result: TrialResult) -> None:
            slots[result.point_index][result.trial_index] = result.metrics
            remaining[result.point_index] -= 1
            if remaining[result.point_index] == 0:
                trials = [t for t in slots[result.point_index] if t is not None]
                self._finish_point(
                    outcome,
                    result.point_index,
                    trials,
                    time.perf_counter() - started_at[result.point_index],
                )

        backend = self.backend if self.backend is not None else LocalBackend(self.jobs)
        try:
            backend.submit_trials(tasks)
            for result in backend.drain_results():
                record(result)
        except BaseException:
            # Graceful interrupt/failure path: cancel outstanding work, but
            # harvest trials that already finished so any point they complete
            # reaches the cache before the exception propagates.  The harvest
            # itself must never mask the original exception.
            try:
                for result in backend.cancel():
                    record(result)
            except Exception:  # pragma: no cover - defensive
                pass
            raise
        finally:
            backend.close()


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
) -> SweepOutcome:
    """One-call convenience wrapper around :class:`ParallelExecutor`.

    ``cache_dir`` builds a :class:`ResultCache` rooted there; passing an
    explicit ``cache`` instance takes precedence (e.g. to share counters
    across several sweeps).
    """
    if cache is None and cache_dir is not None:
        cache = ResultCache(Path(cache_dir))
    return ParallelExecutor(jobs=jobs, cache=cache, progress=progress).run(spec)
