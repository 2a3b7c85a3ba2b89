"""Declarative sweep specifications.

A sweep is described entirely by *data*: a :class:`SweepSpec` is a tuple of
:class:`SweepPoint`, each of which names a PET matrix (:class:`PETSpec`), a
mapping heuristic (:class:`HeuristicSpec`), a workload configuration and the
cross-cutting :class:`~repro.experiments.config.ExperimentConfig`.  Because a
point is plain frozen-dataclass data it can be

* pickled to a ``ProcessPoolExecutor`` worker, which rebuilds the PET and the
  heuristic locally;
* hashed into a stable content address (:func:`cache_key`) so repeated or
  interrupted sweeps resume from the on-disk result cache.

Seed discipline matches the paper's paired-comparison protocol: every point
derives its per-trial streams from ``config.seed`` via
``SeedSequence.spawn``, so heuristics evaluated at the same data point see
identical arrival traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from pathlib import Path

from ..core.batch import KERNEL_VERSION
from ..heuristics.registry import HEURISTIC_NAMES, make_heuristic
from ..pet.builders import build_spec_pet, build_transcoding_pet
from ..pruning.oversubscription import OversubscriptionDetector
from ..pruning.thresholds import PruningThresholds
from ..workload.generator import WorkloadConfig
from ..workload.traces import load_trace, trace_content_hash
from ..workload.transcoding import TRACE_BUILDERS, build_named_trace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..experiments.config import ExperimentConfig
    from ..heuristics.base import MappingHeuristic
    from ..pet.matrix import PETMatrix
    from ..workload.generator import WorkloadTrace

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "PETSpec",
    "HeuristicSpec",
    "TraceSpec",
    "SweepPoint",
    "SweepSpec",
    "cache_key",
    "point_payload",
    "spawn_trial_seeds",
    "trace_for",
]


def spawn_trial_seeds(seed: int, trials: int) -> list[np.random.SeedSequence]:
    """The per-trial seed sequences derived from one master seed.

    This is THE seed-derivation invariant of the subsystem: both the serial
    loop and the parallel workers obtain trial *k*'s streams from
    ``spawn_trial_seeds(config.seed, config.trials)[k]``, so results are
    bit-identical for every ``jobs`` setting.  ``SeedSequence.spawn`` is
    deterministic in the parent's entropy and spawn position, which is what
    makes recomputing the list in each worker safe.
    """
    master = np.random.SeedSequence(seed)
    return master.spawn(trials)

#: Bumped whenever the semantics of a cached artefact change; part of every
#: content address so stale artefacts are simply never looked up again.
#: The scoring/chain-kernel semantics are versioned separately: every
#: content address also folds in :data:`repro.core.batch.KERNEL_VERSION`,
#: so a kernel change that could alter simulated values invalidates cached
#: results without touching the artefact schema.
CACHE_SCHEMA_VERSION = 1

#: PET kinds understood by :meth:`PETSpec.build`.
PET_KINDS: tuple[str, ...] = ("spec", "transcoding")

#: Heuristics whose constructors accept pruning-specific knobs (detector,
#: ablation switches); for the baselines those fields must stay at defaults.
_PRUNING_HEURISTICS = frozenset({"PAM", "PAMF"})


@dataclass(frozen=True)
class PETSpec:
    """Names a PET matrix by builder kind + seed instead of carrying it.

    The matrix itself is hundreds of sampled PMFs; rebuilding it from the
    seed in each worker process is cheap, deterministic and keeps sweep
    points tiny when pickled or hashed.
    """

    kind: str = "spec"
    seed: int = 2019

    def __post_init__(self) -> None:
        if self.kind not in PET_KINDS:
            raise ValueError(f"unknown PET kind {self.kind!r}; expected one of {PET_KINDS}")

    def build(self) -> "PETMatrix":
        if self.kind == "spec":
            return build_spec_pet(rng=self.seed)
        return build_transcoding_pet(rng=self.seed)


@dataclass(frozen=True)
class HeuristicSpec:
    """Declarative recipe for one mapping heuristic.

    Covers everything the figure drivers and ablation benchmarks configure:
    the paper name, pruning thresholds, the PAMF fairness factor, the
    oversubscription-detector parameters swept in Figure 4, and the
    deferring/dropping ablation switches.
    """

    name: str
    thresholds: PruningThresholds | None = None
    fairness_factor: float = 0.05
    #: Detector lambda (Figure 4); ``None`` keeps the constructor default.
    ewma_weight: float | None = None
    #: Schmitt-trigger separation; 0.0 is the single-threshold "default" toggle.
    schmitt_separation: float | None = None
    enable_dropping: bool = True
    enable_deferring: bool = True

    def __post_init__(self) -> None:
        key = self.name.strip().upper()
        if key not in HEURISTIC_NAMES:
            raise ValueError(f"unknown heuristic {self.name!r}; expected one of {HEURISTIC_NAMES}")
        object.__setattr__(self, "name", key)
        if key not in _PRUNING_HEURISTICS:
            if self.ewma_weight is not None or self.schmitt_separation is not None:
                raise ValueError(f"{key} takes no oversubscription detector")
            if not (self.enable_dropping and self.enable_deferring):
                raise ValueError(f"{key} has no pruning stages to ablate")

    def build(self, num_task_types: int) -> "MappingHeuristic":
        """Construct a fresh heuristic instance (one per trial)."""
        kwargs: dict[str, object] = {}
        if self.ewma_weight is not None or self.schmitt_separation is not None:
            detector_kwargs: dict[str, float] = {}
            if self.ewma_weight is not None:
                detector_kwargs["ewma_weight"] = self.ewma_weight
            if self.schmitt_separation is not None:
                detector_kwargs["schmitt_separation"] = self.schmitt_separation
            kwargs["detector"] = OversubscriptionDetector(**detector_kwargs)
        if not self.enable_dropping:
            kwargs["enable_dropping"] = False
        if not self.enable_deferring:
            kwargs["enable_deferring"] = False
        return make_heuristic(
            self.name,
            num_task_types=num_task_types,
            thresholds=self.thresholds,
            fairness_factor=self.fairness_factor,
            **kwargs,
        )


@dataclass(frozen=True)
class TraceSpec:
    """Declarative handle for a recorded or named workload trace.

    A sibling of :class:`PETSpec`: instead of carrying the trace (hundreds
    of task records), a point names it either by **file** (a JSON trace
    written by :func:`repro.workload.traces.save_trace` — e.g. the shipped
    ``examples/transcoding_660.trace.json`` or a trace captured from a real
    system) or by **builder** (a registered deterministic generator such as
    ``"transcoding-660"`` plus its seed).  Workers resolve the handle
    locally; the content address folds in the *canonical content hash* of
    the resolved trace for files — editing the file invalidates cached
    results, while reformatting it does not — and the (builder, seed,
    num_tasks) triple for builders.

    Replay semantics match the paper's paired-comparison protocol: every
    trial of a trace-backed point replays the *identical* arrival trace;
    only the execution-time sampling stream differs per trial.
    """

    path: str | None = None
    builder: str | None = None
    seed: int = 2019
    num_tasks: int | None = None

    def __post_init__(self) -> None:
        if (self.path is None) == (self.builder is None):
            raise ValueError("exactly one of path or builder is required")
        if self.path is not None:
            object.__setattr__(self, "path", str(self.path))
        if self.builder is not None and self.builder not in TRACE_BUILDERS:
            raise ValueError(
                f"unknown trace builder {self.builder!r}; expected one of "
                f"{sorted(TRACE_BUILDERS)}"
            )
        if self.num_tasks is not None and self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")

    def resolve(self) -> "WorkloadTrace":
        """Load (file) or build (named builder) the actual workload trace."""
        if self.path is not None:
            return load_trace(Path(self.path))
        return build_named_trace(
            self.builder, seed=self.seed, num_tasks=self.num_tasks
        )

    def fingerprint(self) -> dict[str, object]:
        """Content identity folded into the sweep cache key.

        For a file trace this is the canonical content hash of the resolved
        payload (path-independent: moving or reformatting the file keeps
        cached results valid; changing any task invalidates them).  The
        hash is memoised per ``(path, mtime, size)`` — ``cache_key`` is
        computed several times per point (cache lookup, store, artefact
        payload), and re-reading the file each time would dominate replay
        sweeps over large captured traces.
        """
        if self.path is not None:
            stat = Path(self.path).stat()
            return {
                "trace_sha256": _file_trace_hash(
                    self.path, stat.st_mtime_ns, stat.st_size
                )
            }
        return {
            "builder": self.builder,
            "seed": self.seed,
            "num_tasks": self.num_tasks,
        }


def trace_for(spec: TraceSpec) -> "WorkloadTrace":
    """Per-process memo of resolved workload traces.

    A point's trials all replay the same trace, every heuristic at the
    same trace shares it, and the content-hash fingerprint is computed
    over the same parsed object — so each file is read and validated once
    per process.  File-backed specs are memoised per ``(path, mtime,
    size)``, so editing a trace file in place serves the new content
    rather than a stale cached object (which would otherwise be stored
    under the *new* content hash, poisoning the result cache).
    """
    if spec.path is not None:
        stat = Path(spec.path).stat()
        return _trace_for_file(spec.path, stat.st_mtime_ns, stat.st_size)
    return _trace_for_builder(spec)


@lru_cache(maxsize=16)
def _trace_for_file(path: str, mtime_ns: int, size: int) -> "WorkloadTrace":
    return load_trace(Path(path))


@lru_cache(maxsize=16)
def _trace_for_builder(spec: TraceSpec) -> "WorkloadTrace":
    return spec.resolve()


@lru_cache(maxsize=64)
def _file_trace_hash(path: str, mtime_ns: int, size: int) -> str:
    """Canonical content hash of a trace file, memoised per file version.

    Shares the parsed trace with :func:`trace_for` (same memo key), so
    hashing never re-reads a file the resolver already loaded.
    """
    return trace_content_hash(_trace_for_file(path, mtime_ns, size))


@dataclass(frozen=True)
class SweepPoint:
    """One data point of a sweep: everything needed to run its trials.

    ``label`` is presentation-only and deliberately excluded from the content
    address, so relabelling a grid never invalidates cached results.

    The workload is either synthesised per trial from ``workload`` or
    replayed from ``trace`` (exactly one must be set); a trace-backed point
    feeds the identical arrival trace to every trial and heuristic.
    """

    label: str
    pet: PETSpec
    heuristic: HeuristicSpec
    workload: WorkloadConfig | None
    config: "ExperimentConfig"
    machine_prices: tuple[float, ...] | None = None
    evict_executing_at_deadline: bool = True
    trace: TraceSpec | None = None

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.trace is None):
            raise ValueError("exactly one of workload or trace is required")
        if self.machine_prices is not None:
            object.__setattr__(
                self, "machine_prices", tuple(float(p) for p in self.machine_prices)
            )

    # ------------------------------------------------------------------
    def trial_seeds(self) -> list[np.random.SeedSequence]:
        """The per-trial seed sequences, identical for every jobs setting."""
        return spawn_trial_seeds(self.config.seed, self.config.trials)

    def cache_key(self) -> str:
        return cache_key(self)


def point_payload(point: SweepPoint) -> dict[str, object]:
    """Canonical JSON-able description of a point's *content* (no label).

    The ``trace`` key only appears for trace-backed points so that every
    pre-existing synthetic-workload cache key is unchanged.  The same
    back-compat discipline governs two config fields:

    * ``kernel_backend`` never appears — every kernel backend is
      bit-identical, so the ``engine`` tag is the bare
      :data:`~repro.core.batch.KERNEL_VERSION` and a ``numba`` run shares
      the entries of its ``numpy`` twin (as every ``jobs`` setting
      does);
    * ``batch_window`` appears only when non-zero, so per-event
      (``window=0``) keys are unchanged and batched-round results never
      collide with them.
    """
    config_payload = asdict(point.config)
    config_payload.pop("kernel_backend", None)
    if not config_payload.get("batch_window"):
        config_payload.pop("batch_window", None)
    payload: dict[str, object] = {
        "schema": CACHE_SCHEMA_VERSION,
        "engine": KERNEL_VERSION,
        "pet": asdict(point.pet),
        "heuristic": asdict(point.heuristic),
        "workload": asdict(point.workload) if point.workload is not None else None,
        "config": config_payload,
        "machine_prices": list(point.machine_prices)
        if point.machine_prices is not None
        else None,
        "evict_executing_at_deadline": point.evict_executing_at_deadline,
    }
    if point.trace is not None:
        payload["trace"] = point.trace.fingerprint()
    return payload


def cache_key(point: SweepPoint) -> str:
    """Stable content address of a point: SHA-256 over canonical JSON.

    Stable across processes and platforms (unlike builtin ``hash``), and
    sensitive to every config field, the seed, and the scoring-kernel
    version tag by construction — bumping
    :data:`repro.core.batch.KERNEL_VERSION` therefore invalidates every
    previously cached result.
    """
    canonical = json.dumps(point_payload(point), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of sweep points (one experiment grid)."""

    points: tuple[SweepPoint, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    @property
    def total_trials(self) -> int:
        return sum(point.config.trials for point in self.points)

    @classmethod
    def from_grid(
        cls,
        *,
        pet: PETSpec,
        heuristics: Mapping[str, HeuristicSpec],
        workloads: Mapping[str, WorkloadConfig],
        config: "ExperimentConfig",
        machine_prices: tuple[float, ...] | None = None,
        evict_executing_at_deadline: bool = True,
        label_format: str = "{workload},{heuristic}",
    ) -> "SweepSpec":
        """Cross product of workloads x heuristics (workload-major order).

        The iteration order matches the historical figure drivers: for each
        workload level, every heuristic in turn.
        """
        points = tuple(
            SweepPoint(
                label=label_format.format(workload=wl_label, heuristic=h_label),
                pet=pet,
                heuristic=heuristic,
                workload=workload,
                config=config,
                machine_prices=machine_prices,
                evict_executing_at_deadline=evict_executing_at_deadline,
            )
            for wl_label, workload in workloads.items()
            for h_label, heuristic in heuristics.items()
        )
        return cls(points=points)

    @classmethod
    def from_traces(
        cls,
        *,
        pet: PETSpec,
        heuristics: Mapping[str, HeuristicSpec],
        traces: Mapping[str, "TraceSpec"],
        config: "ExperimentConfig",
        machine_prices: tuple[float, ...] | None = None,
        evict_executing_at_deadline: bool = True,
        label_format: str = "{trace},{heuristic}",
    ) -> "SweepSpec":
        """Cross product of recorded traces x heuristics (trace-major order).

        The trace-backed sibling of :meth:`from_grid`: every heuristic
        replays the identical recorded arrival trace (the paper's paired
        replay protocol), and results flow through the same cache.
        """
        points = tuple(
            SweepPoint(
                label=label_format.format(trace=tr_label, heuristic=h_label),
                pet=pet,
                heuristic=heuristic,
                workload=None,
                config=config,
                machine_prices=machine_prices,
                evict_executing_at_deadline=evict_executing_at_deadline,
                trace=trace,
            )
            for tr_label, trace in traces.items()
            for h_label, heuristic in heuristics.items()
        )
        return cls(points=points)
