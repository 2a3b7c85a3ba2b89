"""Bounded latency histogram and the service's metrics snapshot."""

from __future__ import annotations

import pytest

from repro.serve.metrics import LatencyHistogram, ServiceMetrics


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


def test_snapshot_keys_and_latency_summary():
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
    assert snap["submitted"] == 4
    assert snap["admission_latency"] == metrics.admission.summary()
    assert snap["admission_latency"]["count"] == 1

