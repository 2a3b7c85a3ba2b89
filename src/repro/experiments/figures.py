"""The paper's six evaluation figures (Section VII, Figures 4-9) as data.

Each ``run_figN`` only builds its figure's ordered ``(key, SweepPoint)``
pairs.  One runner dedupes the keys, runs the points through
:func:`repro.sweep.run_sweep` and returns a :class:`FigureResult`: the
series by key (read ``result.series[key]`` and its ``SeriesResult``
summaries) plus the table the CLI prints and ``--output-dir`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Sequence

from ..heuristics.registry import HEURISTIC_NAMES
from ..pruning.thresholds import PruningThresholds
from ..simulator.cost import default_prices_for
from ..sweep import HeuristicSpec, PETSpec, SweepPoint, SweepSpec, TraceSpec
from ..sweep import pet_for, run_sweep, trace_for
from ..sweep.progress import ProgressCallback
from ..utils.tables import format_table
from .config import ExperimentConfig, transcoding_workload_for_level, workload_for_level
from .reporting import rows_to_csv, rows_to_json
from .runner import SeriesResult

__all__ = ["FigureResult", "TRACE_LEVEL_LABEL", "trace_replay_points", "run_fig4", "run_fig5",
           "run_fig6", "run_fig7", "run_fig8", "run_fig9"]

#: The oversubscription level of Figures 4 and 5.
HIGH_LEVEL = "34k"

#: The two oversubscription levels of Figures 6-8.
SPEC_LEVELS: tuple[str, ...] = ("19k", "34k")

#: Figure 4's toggle modes: a single threshold, and a Schmitt trigger.
TOGGLE_MODES: tuple[str, ...] = ("default", "schmitt")

#: Highest deferring threshold of Figure 5 (the paper stops at 90 %).
MAX_DEFER = 0.90

#: Level label of the series that replay a recorded trace.
TRACE_LEVEL_LABEL = "replay"

Pairs = list[tuple[Hashable, SweepPoint]]


@dataclass
class FigureResult:
    """One figure's series by key and the table they print as."""

    number: int
    title: str
    headers: tuple[str, ...]
    series: dict[Hashable, SeriesResult]
    rows: list[list[object]]
    float_format: str = "{:.2f}"

    def to_text(self) -> str:
        table = format_table(self.headers, self.rows, float_format=self.float_format)
        return f"{self.title}\n{table}"

    def save(self, output_dir: str | Path) -> dict[str, Path]:
        """Write ``figureN.txt``/``.csv``/``.json`` under ``output_dir``."""
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        name = output_dir / f"figure{self.number}"
        text_path = name.with_suffix(".txt")
        text_path.write_text(self.to_text() + "\n")
        return {
            "text": text_path,
            "csv": rows_to_csv(self.headers, self.rows, name.with_suffix(".csv")),
            "json": rows_to_json(self.headers, self.rows, name.with_suffix(".json")),
        }


def _run(pairs: Iterable[tuple[Hashable, SweepPoint]], **sweep) -> dict[Hashable, SeriesResult]:
    """Run each distinct key's first point once; ``sweep`` goes to :func:`run_sweep`."""
    points: dict[Hashable, SweepPoint] = {}
    for key, point in pairs:
        points.setdefault(key, point)
    return run_sweep(SweepSpec(points=tuple(points.values())), **sweep).series_map(points)


def _mean_ci(series: SeriesResult) -> list[object]:
    robustness = series.robustness()
    return [robustness.mean, robustness.ci95]


#: Table of Figures 7 and 9: one row per (level, heuristic).
_ROBUSTNESS_HEADERS = ("level", "heuristic", "robustness %", "ci95")


def _robustness_rows(series: dict) -> list[list[object]]:
    return [[*key, *_mean_ci(s)] for key, s in sorted(series.items())]


def run_fig4(
    config: ExperimentConfig | None = None,
    *,
    lambdas: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> FigureResult:
    """Figure 4: PAM over the detector's EWMA weight (lambda of Eq. 8).

    Keyed ``(lambda, mode)``.  The paper finds that robustness grows with
    lambda and that the Schmitt trigger beats the single threshold.
    """
    config = config or ExperimentConfig()
    pet = PETSpec(kind="spec", seed=config.seed)
    workload = workload_for_level(HIGH_LEVEL, config)
    pairs = [
        (
            (lam, mode),
            SweepPoint(
                label=f"lambda={lam:.1f},{mode}",
                pet=pet,
                heuristic=HeuristicSpec(
                    name="PAM",
                    thresholds=PruningThresholds(),
                    ewma_weight=lam,
                    schmitt_separation=0.2 if mode == "schmitt" else 0.0,
                ),
                workload=workload,
                config=config,
            ),
        )
        for lam in lambdas
        for mode in TOGGLE_MODES
    ]
    series = _run(pairs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    columns = ("robustness %", "ci95")
    return FigureResult(
        4,
        f"Figure 4 — robustness vs lambda (oversubscription level {HIGH_LEVEL})",
        ("lambda", *(f"{mode} {col}" for mode in TOGGLE_MODES for col in columns)),
        series,
        # One row per lambda, the toggle modes side by side.
        [
            [lam, *(cell for mode in TOGGLE_MODES for cell in _mean_ci(series[(lam, mode)]))]
            for lam in sorted({lam for lam, _ in series})
        ],
    )


def run_fig5(
    config: ExperimentConfig | None = None,
    *,
    dropping_thresholds: Sequence[float] = (0.25, 0.50, 0.75),
    gap_step: float = 0.10,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> FigureResult:
    """Figure 5: PAM over the dropping and deferring thresholds.

    Per dropping threshold the deferring one steps by ``gap_step`` (the
    paper: 5 %) up to 90 %; keyed ``(dropping, deferring)``, rounded to 4
    places.  The paper finds a higher deferring threshold always helps.
    """
    config = config or ExperimentConfig()
    if gap_step <= 0:
        raise ValueError("gap_step must be positive")
    pet = PETSpec(kind="spec", seed=config.seed)
    workload = workload_for_level(HIGH_LEVEL, config)
    pairs: Pairs = []
    for dropping in dropping_thresholds:
        deferring = dropping
        while deferring <= MAX_DEFER + 1e-9:
            thresholds = PruningThresholds(dropping=dropping, deferring=deferring)
            point = SweepPoint(
                label=f"drop={dropping:.0%},defer={deferring:.0%}",
                pet=pet,
                heuristic=HeuristicSpec(name="PAM", thresholds=thresholds),
                workload=workload,
                config=config,
            )
            pairs.append(((round(dropping, 4), round(deferring, 4)), point))
            deferring += gap_step
    series = _run(pairs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    return FigureResult(
        5,
        f"Figure 5 — robustness vs deferring threshold (level {HIGH_LEVEL})",
        ("drop threshold %", "defer threshold %", "robustness %", "ci95"),
        series,
        [[drop * 100, defer * 100, *_mean_ci(s)] for (drop, defer), s in sorted(series.items())],
    )


def run_fig6(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = SPEC_LEVELS,
    fairness_factors: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25),
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> FigureResult:
    """Figure 6: PAMF over its fairness factor.

    Keyed ``(level, factor)``, the factor rounded to 4 places.  The paper
    finds a 5 % factor buys a large drop in the variance of per-type
    completion for a few points of robustness.
    """
    config = config or ExperimentConfig()
    pet = PETSpec(kind="spec", seed=config.seed)
    pairs = [
        (
            (level, round(factor, 4)),
            SweepPoint(
                label=f"{level},factor={factor:.0%}",
                pet=pet,
                heuristic=HeuristicSpec(
                    name="PAMF", thresholds=PruningThresholds(), fairness_factor=factor
                ),
                workload=workload_for_level(level, config),
                config=config,
            ),
        )
        for level in levels
        for factor in fairness_factors
    ]
    series = _run(pairs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    return FigureResult(
        6,
        "Figure 6 — fairness factor sweep (PAMF)",
        ("level", "fairness factor %", "variance of type completion %", "robustness %", "ci95"),
        series,
        [
            [level, factor * 100, s.fairness_variance().mean, *_mean_ci(s)]
            for (level, factor), s in sorted(series.items())
        ],
    )


def _level_grid(
    pet: PETSpec,
    levels: Sequence[str],
    heuristics: Sequence[str],
    workload_for: Callable,
    config: ExperimentConfig,
    machine_prices: tuple[float, ...] | None = None,
) -> Pairs:
    """:meth:`SweepSpec.from_grid`'s points keyed ``(level, heuristic)``."""
    names = dict.fromkeys(heuristics)
    by_level = {level: workload_for(level, config) for level in levels}
    spec = SweepSpec.from_grid(
        pet=pet,
        heuristics={name: HeuristicSpec(name=name) for name in names},
        workloads=by_level,
        config=config,
        machine_prices=machine_prices,
    )
    return list(zip([(level, name) for level in by_level for name in names], spec.points))


def _prices(pet: PETSpec) -> tuple[float, ...]:
    return tuple(default_prices_for(pet_for(pet).machine_names))


def run_fig7(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = SPEC_LEVELS,
    heuristics: Sequence[str] = HEURISTIC_NAMES,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> FigureResult:
    """Figure 7: robustness of PAM/PAMF against the baselines.

    Keyed ``(level, heuristic)``.  The paper's shape: PAM wins, PAMF lands
    near MOC (the best baseline), MM trails, and MSD/MMU collapse.
    """
    config = config or ExperimentConfig()
    pet = PETSpec(kind="spec", seed=config.seed)
    pairs = _level_grid(pet, levels, heuristics, workload_for_level, config)
    series = _run(pairs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    return FigureResult(
        7,
        "Figure 7 — robustness comparison of mapping heuristics",
        _ROBUSTNESS_HEADERS,
        series,
        _robustness_rows(series),
    )


def run_fig8(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = SPEC_LEVELS,
    heuristics: Sequence[str] = ("PAM", "PAMF", "MOC", "MM"),
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> FigureResult:
    """Figure 8: cost per percent of on-time completions.

    Cloud prices on the machines' busy time; keyed ``(level, heuristic)``.
    The paper finds PAM/PAMF about 40 % cheaper than the baselines.
    """
    config = config or ExperimentConfig()
    pet = PETSpec(kind="spec", seed=config.seed)
    pairs = _level_grid(pet, levels, heuristics, workload_for_level, config, _prices(pet))
    series = _run(pairs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    return FigureResult(
        8,
        "Figure 8 — incurred cost per percent of on-time completions",
        ("level", "heuristic", "total cost", "robustness %", "cost / percent on-time"),
        series,
        [
            [*key, s.cost().mean, s.robustness().mean, s.cost_per_percent().mean]
            for key, s in sorted(series.items())
        ],
        float_format="{:.3f}",
    )


def trace_replay_points(
    trace: str | Path | TraceSpec,
    heuristics: Sequence[str],
    config: ExperimentConfig,
    *,
    pet: str = "transcoding",
) -> Pairs:
    """Every heuristic replaying one recorded trace, keyed ``("replay", name)``.

    The paper's paired protocol: each heuristic replays the identical
    arrivals, on the PET's default machine prices.  The trace is resolved
    and checked against the PET here, before any trial runs: a missing
    file raises :class:`FileNotFoundError`, and a recording with more task
    types than the PET a :class:`ValueError`.
    """
    trace_spec = trace if isinstance(trace, TraceSpec) else TraceSpec(path=str(trace))
    pet_spec = PETSpec(kind=pet, seed=config.seed)
    recorded = trace_for(trace_spec).num_task_types
    available = pet_for(pet_spec).num_task_types
    if recorded > available:
        raise ValueError(
            f"trace uses {recorded} task types but the {pet!r} PET only has {available}; "
            "figure 9 replays transcoding-shaped traces (record one with "
            "'repro trace record --builder transcoding-660')"
        )
    names = dict.fromkeys(heuristics)
    spec = SweepSpec.from_traces(
        pet=pet_spec,
        heuristics={name: HeuristicSpec(name=name) for name in names},
        traces={TRACE_LEVEL_LABEL: trace_spec},
        config=config,
        machine_prices=_prices(pet_spec),
    )
    return [((TRACE_LEVEL_LABEL, name), point) for name, point in zip(names, spec.points)]


def run_fig9(
    config: ExperimentConfig | None = None,
    *,
    levels: Sequence[str] = ("10k", "12.5k", "15k", "17.5k"),
    heuristics: Sequence[str] = ("PAMF", "MM"),
    trace: str | Path | TraceSpec | None = None,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: ProgressCallback | None = None,
) -> FigureResult:
    """Figure 9: PAMF vs MM on the video-transcoding workload.

    Keyed ``(level, heuristic)``; the paper finds PAMF's advantage grows
    with the level.  A ``trace`` (a path or a ``TraceSpec``, such as the
    shipped ``examples/transcoding_660.trace.json``) replaces the levels
    with :func:`trace_replay_points`.
    """
    config = config or ExperimentConfig()
    if trace is not None:
        pairs = trace_replay_points(trace, heuristics, config)
    else:
        pet = PETSpec(kind="transcoding", seed=config.seed)
        workload_for = transcoding_workload_for_level
        pairs = _level_grid(pet, levels, heuristics, workload_for, config, _prices(pet))
    series = _run(pairs, jobs=jobs, cache_dir=cache_dir, progress=progress)
    return FigureResult(
        9,
        "Figure 9 — PAMF vs MM on the video-transcoding workload",
        _ROBUSTNESS_HEADERS,
        series,
        _robustness_rows(series),
    )
