"""LogBucketHistogram: bounded memory and pinned quantiles."""

from __future__ import annotations

import math

import pytest

from repro.obs import LogBucketHistogram


def test_exact_scalars_and_len():
    hist = LogBucketHistogram()
    values = [0.001, 0.002, 0.01, 0.5, 3.0]
    for value in values:
        hist.record(value)
    assert len(hist) == hist.count == len(values)
    assert hist.total == pytest.approx(sum(values))
    assert hist.mean == pytest.approx(sum(values) / len(values))
    assert hist.min == min(values)
    assert hist.max == max(values)


def test_memory_is_bounded_by_construction():
    hist = LogBucketHistogram()
    buckets_before = hist.num_buckets
    for i in range(10_000):
        hist.record((i % 997 + 1) * 1e-5)
    assert hist.num_buckets == buckets_before
    assert hist.count == 10_000


def test_rejects_negative_and_non_finite():
    hist = LogBucketHistogram()
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hist.record(bad)
    assert hist.count == 0


def test_empty_summary_is_nan():
    summary = LogBucketHistogram().summary()
    assert summary["count"] == 0
    for key in ("mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
        assert math.isnan(summary[key])
    assert math.isnan(LogBucketHistogram().percentile(50.0))


def test_percentile_is_upper_bound_clamped_to_max():
    hist = LogBucketHistogram(buckets_per_decade=16)
    values = [0.0011, 0.0023, 0.0048, 0.0101, 0.0999]
    for value in values:
        hist.record(value)
    width = 10.0 ** (1.0 / 16) - 1.0
    for q in (50.0, 95.0, 99.0):
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        exact = sorted(values)[rank - 1]
        reported = hist.percentile(q)
        # An upper bound on the true quantile, tight to one bucket width.
        assert exact <= reported <= exact * (1.0 + width) + 1e-12
    # The top quantile clamps to the exact recorded maximum.
    assert hist.percentile(100.0) == hist.max


def test_single_sample_percentiles_equal_the_sample():
    hist = LogBucketHistogram()
    hist.record(0.037)
    for q in (0.0, 50.0, 95.0, 99.0, 100.0):
        assert hist.percentile(q) == pytest.approx(0.037, rel=0.16)
        assert hist.percentile(q) <= 0.037 + 1e-15  # clamped to max


def test_percentile_rejects_out_of_range():
    hist = LogBucketHistogram()
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.percentile(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(101.0)


def test_underflow_and_overflow_samples_are_kept_exactly():
    hist = LogBucketHistogram(lo=1e-3, hi=1e2)
    hist.record(1e-9)  # under lo: first bucket
    hist.record(5e4)  # over hi: overflow bucket
    assert hist.count == 2
    assert hist.min == 1e-9
    assert hist.max == 5e4
    # The overflow bucket's reported quantile clamps to the exact max
    # instead of the bucket's infinite upper edge.
    assert hist.percentile(99.0) == 5e4
    assert math.isinf(hist.bucket_upper_edge(hist.num_buckets - 1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        LogBucketHistogram(lo=1.0, hi=0.5)
    with pytest.raises(ValueError):
        LogBucketHistogram(lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        LogBucketHistogram(buckets_per_decade=0)
