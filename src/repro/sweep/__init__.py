"""repro.sweep — parallel experiment orchestration with result caching.

The subsystem splits experiment execution into three declarative layers:

* :mod:`repro.sweep.spec` — :class:`SweepSpec`/:class:`SweepPoint` describe a
  (heuristic x workload x simulator-config) grid as plain data with
  deterministic per-point seed derivation;
* :mod:`repro.sweep.executor` — :class:`ParallelExecutor`/:func:`run_sweep`
  fan trials out over a process pool (one worker runs them in-process,
  bit-identical to the pool, as :func:`execute_point` does for one point);
* :mod:`repro.sweep.cache` — :class:`ResultCache` persists per-point results
  as content-addressed JSON artefacts so repeated or interrupted sweeps
  resume without re-simulating.

Quickstart::

    from repro.experiments.config import ExperimentConfig, workload_for_level
    from repro.sweep import HeuristicSpec, PETSpec, SweepSpec, run_sweep

    config = ExperimentConfig(trials=4)
    spec = SweepSpec.from_grid(
        pet=PETSpec(kind="spec", seed=config.seed),
        heuristics={name: HeuristicSpec(name) for name in ("PAM", "MM")},
        workloads={"34k": workload_for_level("34k", config)},
        config=config,
    )
    outcome = run_sweep(spec, jobs=4, cache_dir="results/cache")
    for series in outcome.series():
        print(series.label, series.mean_robustness())
"""

from .backends import Backend, LocalBackend, TrialResult, TrialTask
from .cache import CacheEntry, CacheStats, ResultCache
from .executor import (
    ParallelExecutor,
    SweepOutcome,
    execute_point,
    pet_for,
    run_sweep,
    trace_for,
)
from .progress import PointReport, StreamReporter
from .spec import (
    CACHE_SCHEMA_VERSION,
    HeuristicSpec,
    PETSpec,
    SweepPoint,
    SweepSpec,
    TraceSpec,
    cache_key,
    point_payload,
    spawn_trial_seeds,
)
from .trial import TrialMetrics, execute_trial

__all__ = [
    "Backend",
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CacheStats",
    "HeuristicSpec",
    "LocalBackend",
    "PETSpec",
    "ParallelExecutor",
    "PointReport",
    "ResultCache",
    "StreamReporter",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "TraceSpec",
    "TrialMetrics",
    "TrialResult",
    "TrialTask",
    "cache_key",
    "execute_point",
    "execute_trial",
    "pet_for",
    "point_payload",
    "run_sweep",
    "spawn_trial_seeds",
    "trace_for",
]
