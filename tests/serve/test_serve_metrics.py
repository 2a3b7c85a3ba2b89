"""Bounded latency histogram + exactly-merging ``merge_snapshots``."""

from __future__ import annotations

import math

import pytest

from repro.obs import LogBucketHistogram
from repro.serve.metrics import LatencyHistogram, ServiceMetrics, merge_snapshots


def test_latency_histogram_is_bounded():
    hist = LatencyHistogram()
    buckets = hist.num_buckets
    for i in range(50_000):
        hist.record((i % 1000 + 1) * 1e-5)
    assert hist.num_buckets == buckets
    assert len(hist) == 50_000
    assert not hasattr(hist, "samples")  # the unbounded list is gone


def test_latency_histogram_summary_keys_are_backward_compatible():
    hist = LatencyHistogram()
    hist.record(0.004)
    summary = hist.summary()
    assert set(summary) == {"count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"}
    assert summary["count"] == 1
    assert summary["max_s"] == 0.004


def test_latency_histogram_rejects_bad_samples():
    hist = LatencyHistogram()
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hist.record(bad)


def test_snapshot_counter_keys_unchanged_and_hist_added():
    metrics = ServiceMetrics()
    metrics.submitted = 4
    metrics.admission.record(0.002)
    snap = metrics.snapshot()
    assert set(snap) == {
        "submitted",
        "rejected",
        "rejected_overload",
        "assigned",
        "completed",
        "dropped",
        "decisions",
        "mapping_events",
        "runs",
        "admission_latency",
    }
    latency = snap["admission_latency"]
    assert latency["count"] == 1
    hist = LogBucketHistogram.from_payload(latency["hist"])
    assert hist.count == 1


def test_merge_empty_input_returns_well_formed_zero_snapshot():
    merged = merge_snapshots([])
    assert merged["submitted"] == 0 and merged["decisions"] == 0
    latency = merged["admission_latency"]
    assert latency["count"] == 0
    for key in ("mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
        assert math.isnan(latency[key])


def test_merge_is_exact_when_hist_payloads_present():
    a, b, combined = ServiceMetrics(), ServiceMetrics(), ServiceMetrics()
    for value in (0.001, 0.004, 0.3):
        a.admission.record(value)
        combined.admission.record(value)
    for value in (0.0002, 0.09):
        b.admission.record(value)
        combined.admission.record(value)
    a.submitted, b.submitted = 3, 2
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["submitted"] == 5
    expected = combined.admission.summary()
    latency = merged["admission_latency"]
    for key, value in expected.items():
        assert latency[key] == value
    # The merged snapshot carries a mergeable hist itself (re-mergeable).
    again = merge_snapshots([merged, ServiceMetrics().snapshot()])
    assert again["admission_latency"]["count"] == 5


def test_empty_shards_are_identities_not_skew():
    busy = ServiceMetrics()
    busy.admission.record(0.01)
    fresh = ServiceMetrics()  # never produced a latency sample
    merged = merge_snapshots([busy.snapshot(), fresh.snapshot()])
    assert merged["admission_latency"]["count"] == 1
    assert merged["admission_latency"]["max_s"] == 0.01


def test_shard_missing_a_counter_key_contributes_zero():
    busy = ServiceMetrics()
    busy.submitted, busy.completed = 4, 2
    merged = merge_snapshots([busy.snapshot(), {"submitted": 3}])
    assert merged["submitted"] == 7
    assert merged["completed"] == 2
    assert merged["admission_latency"]["count"] == 0


def test_empty_snapshot_counts_as_zero():
    # A shard that answered ``close`` with an error sends no metrics at all.
    busy = ServiceMetrics()
    busy.submitted = 4
    busy.admission.record(0.02)
    merged = merge_snapshots([busy.snapshot(), {}])
    assert merged == merge_snapshots([busy.snapshot()])
    assert merged["submitted"] == 4 and merged["completed"] == 0
    assert merged["admission_latency"]["count"] == 1
