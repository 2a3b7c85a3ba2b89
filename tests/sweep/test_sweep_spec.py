"""Tests for the declarative sweep specifications and the cache key.

The cache-key tests are property-style: the content address must be stable
across interpreter processes (it backs an on-disk cache shared between runs)
and must change whenever any config field or the seed changes.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import pytest

from repro.experiments.config import ExperimentConfig, workload_for_level
from repro.pruning.thresholds import PruningThresholds
from repro.sweep import HeuristicSpec, PETSpec, SweepPoint, SweepSpec, cache_key
from repro.workload.generator import WorkloadConfig


def make_point(**overrides) -> SweepPoint:
    config = overrides.pop("config", ExperimentConfig(trials=2, seed=11))
    defaults = dict(
        label="demo",
        pet=PETSpec(kind="spec", seed=11),
        heuristic=HeuristicSpec(name="PAM", thresholds=PruningThresholds()),
        workload=WorkloadConfig(num_tasks=50, time_span=400, beta=1.5),
        config=config,
        machine_prices=(1.0, 2.0),
        evict_executing_at_deadline=True,
    )
    defaults.update(overrides)
    return SweepPoint(**defaults)


def _key_in_subprocess(point: SweepPoint) -> str:
    return point.cache_key()


class TestPETSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown PET kind"):
            PETSpec(kind="wat", seed=1)

    def test_builds_both_kinds(self):
        assert PETSpec(kind="spec", seed=1).build().num_task_types == 12
        assert PETSpec(kind="transcoding", seed=1).build().num_task_types == 4


class TestHeuristicSpec:
    def test_name_normalised_and_validated(self):
        assert HeuristicSpec(name="pam").name == "PAM"
        with pytest.raises(ValueError, match="unknown heuristic"):
            HeuristicSpec(name="NOPE")

    def test_baselines_reject_pruning_knobs(self):
        with pytest.raises(ValueError, match="detector"):
            HeuristicSpec(name="MM", ewma_weight=0.9)
        with pytest.raises(ValueError, match="ablate"):
            HeuristicSpec(name="MOC", enable_dropping=False)

    def test_build_matches_paper_configurations(self):
        pam = HeuristicSpec(name="PAM", ewma_weight=0.5, schmitt_separation=0.0).build(12)
        assert pam.name == "PAM"
        pamf = HeuristicSpec(name="PAMF", fairness_factor=0.1).build(12)
        assert pamf.name == "PAMF"
        mm = HeuristicSpec(name="MM").build(12)
        assert mm.name == "MM"


class TestCacheKey:
    def test_stable_within_process(self):
        point = make_point()
        assert cache_key(point) == cache_key(make_point())
        assert point.cache_key() == cache_key(point)

    def test_stable_across_processes(self):
        """The address backs an on-disk cache: a fresh interpreter must
        derive the same key (sha256 over canonical JSON, not builtin hash)."""
        point = make_point()
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            remote = pool.submit(_key_in_subprocess, point).result()
        assert remote == point.cache_key()

    def test_label_is_cosmetic(self):
        assert make_point(label="a").cache_key() == make_point(label="b").cache_key()

    def test_changes_with_every_config_field_and_seed(self):
        base = make_point()
        variants = [
            make_point(pet=PETSpec(kind="transcoding", seed=11)),
            make_point(pet=PETSpec(kind="spec", seed=12)),
            make_point(heuristic=HeuristicSpec(name="MM")),
            make_point(
                heuristic=HeuristicSpec(
                    name="PAM", thresholds=PruningThresholds(dropping=0.25)
                )
            ),
            make_point(heuristic=HeuristicSpec(name="PAM", ewma_weight=0.5)),
            make_point(workload=WorkloadConfig(num_tasks=51, time_span=400, beta=1.5)),
            make_point(workload=WorkloadConfig(num_tasks=50, time_span=401, beta=1.5)),
            make_point(config=ExperimentConfig(trials=3, seed=11)),
            make_point(config=ExperimentConfig(trials=2, seed=12)),
            make_point(config=ExperimentConfig(trials=2, seed=11, warmup_tasks=7)),
            make_point(machine_prices=(1.0, 2.5)),
            make_point(machine_prices=None),
            make_point(evict_executing_at_deadline=False),
        ]
        keys = [v.cache_key() for v in variants]
        assert base.cache_key() not in keys
        assert len(set(keys)) == len(keys), "every variant must hash distinctly"

    def test_every_experiment_config_field_is_covered(self):
        """Guard against adding an ExperimentConfig knob the hash ignores."""
        base = make_point()
        bumps = {
            "trials": 3,
            "seed": 99,
            "warmup_tasks": 1,
            "cooldown_tasks": 1,
            "queue_capacity": 7,
            "max_impulses": 64,
            "task_scale": 2.0,
            "batch_window": 8,
        }
        # Every kernel backend is bit-identical, so the backend is the one
        # knob deliberately left out of the key.
        unhashed = {"kernel_backend": "numba"}
        assert {f.name for f in fields(ExperimentConfig)} == set(bumps) | set(unhashed)
        for name, value in bumps.items():
            changed = make_point(config=replace(base.config, **{name: value}))
            assert changed.cache_key() != base.cache_key(), name
        for name, value in unhashed.items():
            same = make_point(config=replace(base.config, **{name: value}))
            assert same.cache_key() == base.cache_key(), name


class TestSweepSpec:
    def test_grid_is_workload_major(self):
        config = ExperimentConfig(trials=1, seed=3)
        spec = SweepSpec.from_grid(
            pet=PETSpec(kind="spec", seed=3),
            heuristics={"PAM": HeuristicSpec("PAM"), "MM": HeuristicSpec("MM")},
            workloads={
                "19k": workload_for_level("19k", config),
                "34k": workload_for_level("34k", config),
            },
            config=config,
        )
        assert [p.label for p in spec] == ["19k,PAM", "19k,MM", "34k,PAM", "34k,MM"]
        assert len(spec) == 4
        assert spec.total_trials == 4

    def test_trial_seeds_deterministic(self):
        point = make_point()
        first = [s.generate_state(2).tolist() for s in point.trial_seeds()]
        second = [s.generate_state(2).tolist() for s in point.trial_seeds()]
        assert first == second
        assert len(first) == point.config.trials
