"""Counters and latency histograms for the scheduler service.

:class:`ServiceMetrics` is deliberately dependency-free and synchronous —
the admission loop updates it inline, and ``stats`` requests serialise a
snapshot.  The latency histogram is the shared bounded log-bucketed schema
from :mod:`repro.obs.histogram`: **fixed memory however long the service
lives** (the pre-obs implementation kept every recorded sample, which grew
without bound on a long-lived service), exact count/mean/max, and pinned
upper-bound quantile semantics (nearest rank over the log buckets, clamped
to the exact max — see :class:`~repro.obs.histogram.LogBucketHistogram`).

Because the buckets are fixed, per-shard snapshots **merge exactly**:
:func:`merge_snapshots` sums bucket counts across shards and reads the
percentiles off the merged histogram, instead of the conservative
worst-shard upper bound it falls back to for histogram-less (legacy)
snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..obs.histogram import LogBucketHistogram

__all__ = ["LatencyHistogram", "ServiceMetrics", "merge_snapshots"]


class LatencyHistogram(LogBucketHistogram):
    """Admission-latency histogram: bounded log buckets over 1 µs .. 1000 s.

    The summary keys (``count``/``mean_s``/``p50_s``/``p95_s``/``p99_s``/
    ``max_s``) are unchanged from the exact-sample implementation; the
    percentile read-out is now the pinned bucket-upper-edge quantile
    (within one bucket's ~15.5% relative width of the true value) instead
    of an exact order statistic — the price of bounded memory.
    """

    def __init__(self) -> None:
        super().__init__(lo=1e-6, hi=1e3, buckets_per_decade=16)

    def record(self, seconds: float) -> None:
        if seconds < 0 or not math.isfinite(seconds):
            raise ValueError(
                f"latency must be finite and non-negative, got {seconds!r}"
            )
        super().record(float(seconds))


@dataclass
class ServiceMetrics:
    """Aggregate counters and histograms of one scheduler-service lifetime."""

    submitted: int = 0
    rejected: int = 0
    #: Submissions turned away at the door by backpressure (bounded inbox
    #: full, or a sharded front-end at its in-flight cap) — these never
    #: reach the engine and are answered ``accepted=false``.
    rejected_overload: int = 0
    assigned: int = 0
    completed: int = 0
    dropped: int = 0
    decisions: int = 0
    mapping_events: int = 0
    #: Submission runs the socket service admitted: each is one reply write
    #: per client before its scheduling and one decision broadcast after it.
    runs: int = 0
    #: Wall seconds from a task's submission to its *first* decision
    #: (assignment or terminal event), the service's admission latency.
    admission: LatencyHistogram = field(default_factory=LatencyHistogram)

    def snapshot(self) -> dict[str, object]:
        """JSON-serialisable copy of every counter plus latency summary.

        ``admission_latency`` carries the headline summary keys plus the
        full bucket payload under ``"hist"`` so downstream consumers
        (:func:`merge_snapshots`, the sharded ``stats`` fan-in) can merge
        percentiles exactly.
        """
        latency: dict[str, object] = dict(self.admission.summary())
        latency["hist"] = self.admission.to_payload()
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "rejected_overload": self.rejected_overload,
            "assigned": self.assigned,
            "completed": self.completed,
            "dropped": self.dropped,
            "decisions": self.decisions,
            "mapping_events": self.mapping_events,
            "runs": self.runs,
            "admission_latency": latency,
        }


#: Counter keys of a :meth:`ServiceMetrics.snapshot` that sum across shards.
_COUNTER_KEYS = (
    "submitted",
    "rejected",
    "rejected_overload",
    "assigned",
    "completed",
    "dropped",
    "decisions",
    "mapping_events",
    "runs",
)


def _zero_latency_summary() -> dict[str, float]:
    nan = float("nan")
    return {"count": 0, "mean_s": nan, "p50_s": nan, "p95_s": nan,
            "p99_s": nan, "max_s": nan}


def merge_snapshots(snapshots: Sequence[Mapping]) -> dict[str, object]:
    """Aggregate per-shard metric snapshots into one service-wide view.

    Counters sum exactly; a shard missing a counter key contributes zero.
    An empty snapshot list (or one whose shards never produced metrics)
    yields a well-formed zero snapshot instead of skewing any figure.

    Admission latency merges **exactly** when every contributing shard
    snapshot carries the histogram payload (``admission_latency.hist``
    with an identical bucket layout — always true for same-version
    shards): bucket counts sum and the merged percentiles are read off
    the combined histogram.  Snapshots without the payload (legacy, or a
    foreign layout) fall back to the conservative merge — count-weighted
    mean, worst-shard percentiles/max as an upper bound on the truth.
    Shards with zero recorded latencies are identities in either mode: a
    fresh shard can no longer skew the merged percentiles.
    """
    merged: dict[str, object] = {key: 0 for key in _COUNTER_KEYS}
    contributing: list[Mapping] = []
    for snapshot in snapshots:
        if not isinstance(snapshot, Mapping):
            continue
        for key in _COUNTER_KEYS:
            try:
                merged[key] += int(snapshot.get(key, 0) or 0)
            except (TypeError, ValueError):
                continue
        latency = snapshot.get("admission_latency")
        if isinstance(latency, Mapping) and int(latency.get("count", 0) or 0) > 0:
            contributing.append(latency)

    if not contributing:
        merged["admission_latency"] = _zero_latency_summary()
        return merged

    merged_hist = _merge_latency_hists(contributing)
    if merged_hist is not None:
        latency_out: dict[str, object] = dict(merged_hist.summary())
        latency_out["hist"] = merged_hist.to_payload()
        merged["admission_latency"] = latency_out
        return merged

    # Conservative fallback: exact count and count-weighted mean, worst
    # shard's percentiles and max (an upper bound on the merged truth).
    total_count = 0
    weighted_mean = 0.0
    worst = {"p50_s": float("nan"), "p95_s": float("nan"),
             "p99_s": float("nan"), "max_s": float("nan")}
    for latency in contributing:
        count = int(latency.get("count", 0) or 0)
        total_count += count
        mean = float(latency.get("mean_s", float("nan")))
        if math.isfinite(mean):
            weighted_mean += count * mean
        for key in worst:
            value = float(latency.get(key, float("nan")))
            if math.isfinite(value) and not (value <= worst[key]):
                worst[key] = value
    merged["admission_latency"] = {
        "count": total_count,
        "mean_s": weighted_mean / total_count if total_count else float("nan"),
        **worst,
    }
    return merged


def _merge_latency_hists(
    latencies: Sequence[Mapping],
) -> LogBucketHistogram | None:
    """Exactly-merged histogram, or ``None`` if any shard lacks a usable one."""
    merged: LogBucketHistogram | None = None
    for latency in latencies:
        payload = latency.get("hist")
        if not isinstance(payload, Mapping):
            return None
        try:
            hist = LogBucketHistogram.from_payload(dict(payload))
        except (KeyError, TypeError, ValueError):
            return None
        if merged is None:
            merged = hist
        elif merged.compatible_with(hist):
            merged.merge(hist)
        else:
            return None
    return merged
