"""Ablation benchmarks for the design choices of the paper's pruning mappers
(where they act in a mapping event: docs/architecture.md, "Lifecycle of one
mapping event").

Each ablation runs the same oversubscribed workload with one mechanism
toggled, quantifying how much of PAM's advantage comes from deferring,
dropping, the dynamic per-task threshold (Eq. 7), impulse aggregation, and
the system's automatic eviction of overdue executing tasks.

Every variant is expressed as a declarative :class:`repro.sweep.SweepPoint`
and executed through :func:`repro.sweep.run_sweep` — the ablation toggles
(pruning stages, threshold dynamics, impulse cap, eviction semantics) are
all first-class fields of the sweep spec.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, workload_for_level
from repro.pruning.thresholds import PruningThresholds
from repro.sweep import HeuristicSpec, PETSpec, SweepPoint, SweepSpec, run_sweep


@pytest.fixture(scope="module")
def pet_spec():
    return PETSpec(kind="spec", seed=2019)


def _run(
    pet_spec: PETSpec,
    config: ExperimentConfig,
    *,
    label: str,
    heuristic: HeuristicSpec,
    evict: bool = True,
) -> float:
    point = SweepPoint(
        label=label,
        pet=pet_spec,
        heuristic=heuristic,
        workload=workload_for_level("34k", config),
        config=config,
        evict_executing_at_deadline=evict,
    )
    outcome = run_sweep(SweepSpec(points=(point,)))
    return outcome.series()[0].mean_robustness()


def test_bench_ablation_pruning_stages(benchmark, pet_spec, smoke_config):
    """Deferring-only vs dropping-only vs both vs neither."""

    variants = {
        "defer+drop": HeuristicSpec("PAM", enable_deferring=True, enable_dropping=True),
        "defer-only": HeuristicSpec("PAM", enable_deferring=True, enable_dropping=False),
        "drop-only": HeuristicSpec("PAM", enable_deferring=False, enable_dropping=True),
        "neither": HeuristicSpec("PAM", enable_deferring=False, enable_dropping=False),
    }

    def run_all():
        return {
            name: _run(pet_spec, smoke_config, label=name, heuristic=heuristic)
            for name, heuristic in variants.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for name, robustness in results.items():
        print(f"  ablation {name:<12} robustness {robustness:6.2f}%")
    # Deferring is the dominant contributor; the full mechanism should not be
    # worse than running with no pruning at all.
    assert results["defer+drop"] >= results["neither"] - 2.0
    assert results["defer-only"] >= results["neither"] - 2.0
    benchmark.extra_info.update(results)


def test_bench_ablation_dynamic_threshold(benchmark, pet_spec, smoke_config):
    """Eq. 7 per-task threshold adjustment on vs off."""

    def run_both():
        return {
            name: _run(
                pet_spec,
                smoke_config,
                label=name,
                heuristic=HeuristicSpec(
                    "PAM", thresholds=PruningThresholds(dynamic_per_task=dynamic)
                ),
            )
            for name, dynamic in (("dynamic", True), ("static", False))
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(f"  dynamic per-task threshold {results['dynamic']:.2f}% vs static {results['static']:.2f}%")
    assert abs(results["dynamic"] - results["static"]) < 30.0
    benchmark.extra_info.update(results)


def test_bench_ablation_impulse_aggregation(benchmark, pet_spec, smoke_config):
    """Impulse-aggregation cap: accuracy/cost trade-off (Section IV remark)."""

    def run_levels():
        out = {}
        for cap in (8, 32, 128):
            config = replace(smoke_config, max_impulses=cap)
            out[f"max_impulses={cap}"] = _run(
                pet_spec, config, label=f"cap{cap}", heuristic=HeuristicSpec("PAM")
            )
        return out

    results = benchmark.pedantic(run_levels, rounds=1, iterations=1)
    print()
    for name, robustness in results.items():
        print(f"  {name:<18} robustness {robustness:6.2f}%")
    values = list(results.values())
    assert max(values) - min(values) < 25.0, "aggregation level should not dominate the outcome"
    benchmark.extra_info.update(results)


def test_bench_ablation_no_automatic_eviction(benchmark, pet_spec, smoke_config):
    """System semantics: with automatic deadline eviction disabled, pruning
    becomes the only defence against wasted work and PAM's advantage grows."""

    def run_both_systems():
        out = {}
        for evict in (True, False):
            pam = _run(
                pet_spec, smoke_config, label="pam", heuristic=HeuristicSpec("PAM"), evict=evict
            )
            mm = _run(
                pet_spec, smoke_config, label="mm", heuristic=HeuristicSpec("MM"), evict=evict
            )
            out[f"evict={evict}"] = {"PAM": pam, "MM": mm}
        return out

    results = benchmark.pedantic(run_both_systems, rounds=1, iterations=1)
    print()
    for system, values in results.items():
        print(f"  {system:<12} PAM {values['PAM']:6.2f}%  MM {values['MM']:6.2f}%")
    gap_with_eviction = results["evict=True"]["PAM"] - results["evict=True"]["MM"]
    gap_without = results["evict=False"]["PAM"] - results["evict=False"]["MM"]
    assert gap_without >= gap_with_eviction - 5.0
    benchmark.extra_info["gap_with_eviction"] = gap_with_eviction
    benchmark.extra_info["gap_without_eviction"] = gap_without
