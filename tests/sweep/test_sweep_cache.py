"""Tests for the content-addressed on-disk result cache."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.batch import KERNEL_VERSION
from repro.experiments.config import ExperimentConfig
from repro.sweep import (
    HeuristicSpec,
    PETSpec,
    ResultCache,
    SweepPoint,
    TraceSpec,
    TrialMetrics,
)
from repro.sweep.spec import point_payload
from repro.workload.generator import WorkloadConfig

#: ``cache_key()`` of the ``point`` fixture and of ``trace_point()``, as
#: computed before the kernel backend left the key: every numpy artefact
#: written since then must stay addressable.  At ``KERNEL_VERSION`` 4 (an
#: idle machine's starting head anchored on its uncapped step); at 3 they
#: were ``e08bf9e2…0dd6e64`` and ``82a1907c…ae41dfe3248f``.
SYNTHETIC_POINT_KEY = "1334c6794fe875e221083f34ce8582f91535fe04f0eeb84b51ac03b4cc8f92cd"
TRACE_POINT_KEY = "570ed29e89759d37d67544d2ae5f095426621da9dbbe3eed886ea2e764dd0758"

#: Backend parts of the composite ``"<version>+<backend>"`` engine tags
#: earlier releases wrote; the second is the retired portable backend built
#: on an array-namespace standard.
LEGACY_BACKENDS = ("numba", "-".join(("array", "api")))


@pytest.fixture
def point() -> SweepPoint:
    return SweepPoint(
        label="demo",
        pet=PETSpec(kind="spec", seed=5),
        heuristic=HeuristicSpec(name="MM"),
        workload=WorkloadConfig(num_tasks=40, time_span=300, beta=1.5),
        config=ExperimentConfig(trials=2, seed=5),
    )


def trace_point() -> SweepPoint:
    return SweepPoint(
        label="trace",
        pet=PETSpec(kind="transcoding", seed=7),
        heuristic=HeuristicSpec(name="PAMF"),
        workload=None,
        trace=TraceSpec(builder="transcoding-660", seed=7, num_tasks=33),
        config=ExperimentConfig(trials=1, seed=7),
    )


#: Artefact bodies a cache must count as corrupt rather than crash on: raw
#: text, or an edit of a well-formed artefact's payload.  An integer field
#: of ``1e999`` (written back as ``Infinity``) loads as ``inf``, which no
#: ``int`` can hold.
MALFORMED = {
    "torn": "{ torn mid-write",
    "list": "[]",
    "string": '"x"',
    "null": "null",
    "number": "42",
    "int-overflow": lambda payload: payload["trials"][0].update(completed_on_time=1e999),
    "trials-not-a-list": lambda payload: payload.update(trials=5),
    "trial-not-an-object": lambda payload: payload.update(trials=[1, 2]),
    "field-missing": lambda payload: payload["trials"][0].pop("total_cost"),
    "field-not-a-number": lambda payload: payload["trials"][0].update(total_cost="abc"),
    "per-type-not-a-list": lambda payload: payload["trials"][0].update(
        per_type_completion_percent=None
    ),
}
MALFORMED_BODIES = pytest.mark.parametrize("body", list(MALFORMED.values()), ids=list(MALFORMED))


def malformed_text(body, cache: ResultCache, point: SweepPoint) -> str:
    if isinstance(body, str):
        return body
    payload = json.loads(cache.store(point, make_trials(point.config.trials)).read_text())
    body(payload)
    return json.dumps(payload)


def make_trials(n: int) -> list[TrialMetrics]:
    return [
        TrialMetrics(
            robustness_percent=50.0 + i,
            fairness_variance=1.0,
            total_cost=2.0,
            cost_per_percent_on_time=0.04,
            completed_on_time=10 + i,
            total_tasks=40,
            per_type_completion_percent=(50.0, 60.0),
        )
        for i in range(n)
    ]


class TestResultCache:
    def test_miss_then_roundtrip(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        assert cache.load(point) is None
        trials = make_trials(2)
        path = cache.store(point, trials)
        assert path.exists()
        assert path.parent.parent == tmp_path
        assert cache.load(point) == trials
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "stores": 1}

    def test_artifact_is_self_describing(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        path = cache.store(point, make_trials(2))
        payload = json.loads(path.read_text())
        assert payload["key"] == point.cache_key()
        assert payload["label"] == "demo"
        assert payload["point"]["heuristic"]["name"] == "MM"
        assert len(payload["trials"]) == 2
        assert path.stem == point.cache_key()

    def test_trial_count_mismatch_is_a_miss(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.store(point, make_trials(1))  # wrong count vs config.trials == 2
        assert cache.load(point) is None

    @MALFORMED_BODIES
    def test_corrupt_artifact_is_a_miss(self, tmp_path, point, body):
        cache = ResultCache(tmp_path)
        text = malformed_text(body, cache, point)
        path = cache.path_for(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        assert cache.load(point) is None

    def test_no_stray_tmp_files_after_store(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.store(point, make_trials(2))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_kernel_version_bump_invalidates_cached_results(
        self, tmp_path, point, monkeypatch
    ):
        """A scoring-kernel semantics change must miss every old artefact.

        The engine/kernel version tag is part of the content address, so
        bumping :data:`repro.core.batch.KERNEL_VERSION` changes the key and
        previously stored results are simply never looked up again.
        """
        import repro.sweep.spec as spec_module

        cache = ResultCache(tmp_path)
        cache.store(point, make_trials(2))
        assert cache.load(point) is not None
        old_key = point.cache_key()
        assert spec_module.point_payload(point)["engine"] == spec_module.KERNEL_VERSION

        monkeypatch.setattr(
            spec_module, "KERNEL_VERSION", spec_module.KERNEL_VERSION + 1
        )
        assert point.cache_key() != old_key
        assert cache.load(point) is None  # old artefact is invisible
        cache.store(point, make_trials(2))
        assert cache.load(point) is not None  # re-executed result cached anew


class TestCacheKeyBackendAndWindowFields:
    """The PR-8 config fields must neither collide with nor invalidate
    pre-existing cache entries (see ``point_payload``'s back-compat rules)."""

    def test_batch_window_zero_is_absent_from_payload(self, point):
        payload = point_payload(point)
        assert "batch_window" not in payload["config"]

    def test_batch_window_changes_the_key(self, point):
        windowed = replace(point, config=replace(point.config, batch_window=8))
        assert point_payload(windowed)["config"]["batch_window"] == 8
        assert windowed.cache_key() != point.cache_key()
        other = replace(point, config=replace(point.config, batch_window=16))
        assert other.cache_key() != windowed.cache_key()

    def test_numpy_keys_are_pinned(self, point):
        assert point.cache_key() == SYNTHETIC_POINT_KEY
        assert trace_point().cache_key() == TRACE_POINT_KEY

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_kernel_backend_never_enters_the_key(self, point, backend):
        """The field can only name the NumPy kernels, so it is not content."""
        pinned = replace(point, config=replace(point.config, kernel_backend=backend))
        payload = point_payload(pinned)
        assert "kernel_backend" not in payload["config"]
        assert payload["engine"] == KERNEL_VERSION
        assert pinned.cache_key() == SYNTHETIC_POINT_KEY
        trace = trace_point()
        pinned = replace(trace, config=replace(trace.config, kernel_backend=backend))
        assert pinned.cache_key() == TRACE_POINT_KEY

    def test_pinned_numpy_run_reads_the_default_entry(self, tmp_path, point):
        cache = ResultCache(tmp_path)
        cache.store(point, make_trials(2))
        pinned = replace(point, config=replace(point.config, kernel_backend="numpy"))
        assert cache.path_for(pinned) == cache.path_for(point)
        assert cache.load(pinned) == make_trials(2)


class TestSweepOverMalformedArtefacts:
    @MALFORMED_BODIES
    def test_sweep_resimulates_and_overwrites_the_point(self, tmp_path, point, body):
        """A malformed artefact is a miss: the sweep re-runs that point and
        stores a good artefact in its place."""
        from repro.sweep import SweepSpec, run_sweep

        point = replace(
            point, config=ExperimentConfig(trials=2, seed=5, warmup_tasks=5, cooldown_tasks=5)
        )
        spec = SweepSpec(points=(point,))
        cold = run_sweep(spec, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        text = malformed_text(body, cache, point)
        cache.path_for(point).write_text(text)

        rerun = run_sweep(spec, cache_dir=tmp_path)
        assert rerun.cache_misses == 1
        assert rerun.executed_trials == point.config.trials
        assert rerun.trials_per_point == cold.trials_per_point
        assert ResultCache(tmp_path).load(point) == cold.trials_per_point[0]


class TestTrialMetricsPayload:
    def test_roundtrip(self):
        trial = make_trials(1)[0]
        assert TrialMetrics.from_payload(trial.to_payload()) == trial

    def test_survives_json(self):
        trial = make_trials(1)[0]
        rehydrated = TrialMetrics.from_payload(json.loads(json.dumps(trial.to_payload())))
        assert rehydrated == trial


class TestCacheMaintenance:
    @MALFORMED_BODIES
    def test_entries_flag_corrupt_artefacts(self, tmp_path, point, body):
        cache = ResultCache(tmp_path)
        text = malformed_text(body, cache, point)
        good = cache.store(point, make_trials(2))
        bad = tmp_path / "ab" / "deadbeef.json"
        bad.parent.mkdir(parents=True)
        bad.write_text(text)
        entries = {e.key: e for e in cache.entries()}
        assert entries[good.stem].readable
        assert entries[good.stem].label == "demo"
        assert entries[good.stem].trials == 2
        assert not entries["deadbeef"].readable

    @MALFORMED_BODIES
    def test_disk_stats_and_gc(self, tmp_path, point, body):
        cache = ResultCache(tmp_path)
        text = malformed_text(body, cache, point)
        path = cache.store(point, make_trials(2))
        bad = tmp_path / "ab" / "deadbeef.json"
        bad.parent.mkdir(parents=True)
        bad.write_text(text)

        stats = cache.disk_stats()
        assert stats["entries"] == 2
        assert stats["corrupt"] == 1
        assert stats["bytes"] > 0
        [(version, count)] = stats["kernel_versions"].items()
        assert count == 1

        # GC keeping the current version drops only the corrupt file...
        removed, _ = cache.gc(keep_kernel_version=version)
        assert removed == 1
        assert path.exists() and not bad.exists()
        # ...and keeping a different version drops everything else.
        removed, removed_bytes = cache.gc(keep_kernel_version="v-next")
        assert removed == 1 and removed_bytes > 0
        assert not path.exists()
        assert cache.disk_stats()["entries"] == 0

    @pytest.fixture
    def legacy_backend_cache(self, tmp_path, point):
        """A current artefact beside two retired composite-tag ones."""
        cache = ResultCache(tmp_path)
        paths = {str(KERNEL_VERSION): cache.store(point, make_trials(2))}
        payload = json.loads(paths[str(KERNEL_VERSION)].read_text())
        for index, backend in enumerate(LEGACY_BACKENDS):
            tag = f"{KERNEL_VERSION}+{backend}"
            payload["point"]["engine"] = tag
            legacy = tmp_path / "ff" / f"{index:064x}.json"
            legacy.parent.mkdir(exist_ok=True)
            legacy.write_text(json.dumps(payload))
            paths[tag] = legacy
        return cache, paths

    def test_disk_stats_lists_legacy_tags(self, legacy_backend_cache):
        cache, paths = legacy_backend_cache
        stats = cache.disk_stats()
        assert stats["kernel_versions"] == {tag: 1 for tag in paths}
        assert stats["corrupt"] == 0

    def test_gc_removes_legacy_tags_as_stale(self, legacy_backend_cache):
        cache, paths = legacy_backend_cache
        removed, _ = cache.gc(keep_kernel_version=KERNEL_VERSION, dry_run=True)
        assert removed == 2
        assert all(p.exists() for p in paths.values())  # dry run touches nothing
        removed, _ = cache.gc(keep_kernel_version=KERNEL_VERSION)
        assert removed == 2
        assert [tag for tag, p in paths.items() if p.exists()] == [str(KERNEL_VERSION)]

    def test_gc_stale_version_drops_legacy_tags_too(self, legacy_backend_cache):
        cache, paths = legacy_backend_cache
        removed, _ = cache.gc(keep_kernel_version="v-next")
        assert removed == 3
        assert not any(p.exists() for p in paths.values())

    def test_gc_keeps_what_a_pinned_numpy_run_wrote(self, tmp_path, point):
        """A run that names the NumPy kernels writes the bare version tag: current, never stale."""
        cache = ResultCache(tmp_path)
        pinned = replace(
            point,
            config=replace(point.config, seed=point.config.seed + 1, kernel_backend="numpy"),
        )
        paths = [cache.store(point, make_trials(2)), cache.store(pinned, make_trials(2))]
        assert paths[0] != paths[1]
        assert cache.disk_stats()["kernel_versions"] == {str(KERNEL_VERSION): 2}
        removed, _ = cache.gc(keep_kernel_version=KERNEL_VERSION)
        assert removed == 0
        assert all(p.exists() for p in paths)
