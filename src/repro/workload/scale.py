"""Synthetic production-scale workloads (ROADMAP north star, 100k+ tasks).

The paper's experiments stop at 660 tasks; the batched-rounds engine mode is
aimed at traces two to three orders of magnitude larger.  This module builds
such traces **vectorised end to end** — one merged gamma renewal stream for
the arrivals, one :func:`numpy.random.Generator.integers` draw for the task
types, one broadcast for the Section VI-B deadline formula — so generating a
100k-task trace costs well under a second and never loops per task in
Python.

Unlike :class:`~repro.workload.generator.WorkloadConfig`, the knob here is
the **offered load factor**, not the raw time span: the arrival window is
derived from the PET's overall mean execution time so the system is
oversubscribed by the same ratio at any task count,

    ``time_span = num_tasks * avg_all / (num_machines * load_factor)``.

That keeps a 10k slice of the scale trace in the same operating regime as
the full 100k trace, which is what lets the CI ``scale-smoke`` job gate the
same behaviour the full benchmark measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..pet.builders import build_spec_pet
from ..pet.matrix import PETMatrix
from ..utils.rng import make_generator
from .generator import WorkloadConfig, WorkloadTrace
from .spec import TaskSpec

__all__ = [
    "ScaleTraceConfig",
    "generate_scale_trace",
    "scale_trace",
    "SCALE_TRACE_TASKS",
    "SCALE_TRACE_SEED",
]

#: Default task count of the full-scale trace (the ROADMAP's 100k target).
SCALE_TRACE_TASKS = 100_000

#: Default seed of the scale benchmarks (matches the experiments' master seed).
SCALE_TRACE_SEED = 2019


@dataclass(frozen=True)
class ScaleTraceConfig:
    """Shape parameters of the synthetic scale workload.

    Attributes
    ----------
    num_tasks:
        Total number of tasks in the trace.
    load_factor:
        Offered load as a multiple of system capacity over the arrival
        window; values above one oversubscribe the system (default 1.15,
        the gently-oversubscribed regime where pruning decisions matter).
    beta:
        Deadline slack coefficient (Section VI-B formula).
    variance_fraction:
        Variance of the gamma inter-arrival gaps as a fraction of the mean
        (0.1 matches the paper's synthetic arrival model).
    """

    num_tasks: int = SCALE_TRACE_TASKS
    load_factor: float = 1.15
    beta: float = 2.0
    variance_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        for name in ("load_factor", "beta", "variance_fraction"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.load_factor <= 0:
            raise ValueError("load_factor must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.variance_fraction <= 0:
            raise ValueError("variance_fraction must be positive")


def generate_scale_trace(
    config: ScaleTraceConfig | None = None,
    *,
    rng: np.random.Generator | int | None = None,
    pet: PETMatrix | None = None,
) -> WorkloadTrace:
    """Synthesise one load-calibrated scale trace, fully vectorised.

    Parameters
    ----------
    config:
        Shape parameters (defaults build the 100k-task benchmark trace).
    rng:
        Seed or Generator; the trace is fully determined by it.
    pet:
        PET matrix supplying machine count, task types and the mean
        execution times behind the load calibration and deadline slack;
        defaults to the seeded 12x8 SPECint-style PET of Section VI-A.
    """
    config = config or ScaleTraceConfig()
    rng = make_generator(rng)
    pet = pet if pet is not None else build_spec_pet(rng=SCALE_TRACE_SEED)

    n = config.num_tasks
    avg_all = pet.overall_mean()
    avg_types = np.array(
        [pet.task_type_mean(t) for t in range(pet.num_task_types)], dtype=np.float64
    )
    # Arrival window calibrated so offered work is load_factor * capacity.
    time_span = max(1, int(round(n * avg_all / (pet.num_machines * config.load_factor))))

    # One merged renewal stream: n gamma gaps, cumulative sum, integer grid.
    mean_gap = time_span / n
    variance = config.variance_fraction * mean_gap
    gaps = rng.gamma(shape=mean_gap**2 / variance, scale=variance / mean_gap, size=n)
    arrivals = np.maximum(np.rint(np.cumsum(gaps)).astype(np.int64), 1)
    arrivals = np.maximum.accumulate(arrivals)

    task_types = rng.integers(0, pet.num_task_types, size=n)

    # Section VI-B: delta_i = arr_i + avg_f + beta * avg_all, on the integer
    # grid, with deadlines forced strictly after arrival.
    slack = avg_types[task_types] + config.beta * avg_all
    deadlines = np.rint(arrivals.astype(np.float64) + slack).astype(np.int64)
    deadlines = np.maximum(deadlines, arrivals + 1)

    # Column lists of Python ints; TaskSpec's positional order is
    # (arrival, task_id, task_type, deadline).
    specs = tuple(
        map(TaskSpec, arrivals.tolist(), range(n), task_types.tolist(), deadlines.tolist())
    )
    workload = WorkloadConfig(
        num_tasks=n,
        time_span=time_span,
        beta=config.beta,
        variance_fraction=config.variance_fraction,
    )
    return WorkloadTrace(specs, workload, num_task_types=pet.num_task_types)


def scale_trace(
    *, seed: int = SCALE_TRACE_SEED, num_tasks: int | None = None
) -> WorkloadTrace:
    """Named-builder entry point: the default-shape scale trace.

    Registered as ``"scale"`` in
    :data:`~repro.workload.transcoding.TRACE_BUILDERS`, so sweeps, the CLI
    (``repro trace record --builder scale``) and :class:`TraceSpec`
    fingerprints can all address it by ``(builder, seed, num_tasks)``.
    """
    config = ScaleTraceConfig(
        num_tasks=SCALE_TRACE_TASKS if num_tasks is None else int(num_tasks)
    )
    return generate_scale_trace(config, rng=seed)
