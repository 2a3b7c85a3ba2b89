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
percentiles off the merged histogram.
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

    Counters sum exactly; a shard missing a counter key — or sending an
    empty snapshot, as one that answered ``close`` with an error does —
    contributes zero.  An empty snapshot list yields a well-formed zero
    snapshot.

    Admission latency merges **exactly**: every :meth:`ServiceMetrics.snapshot`
    carries its histogram payload (``admission_latency.hist``), so bucket
    counts sum and the merged percentiles are read off the combined
    histogram.  Shards with zero recorded latencies are identities: a fresh
    shard cannot skew the merged percentiles.
    """
    merged: dict[str, object] = {key: 0 for key in _COUNTER_KEYS}
    hist: LogBucketHistogram | None = None
    for snapshot in snapshots:
        for key in _COUNTER_KEYS:
            merged[key] += int(snapshot.get(key, 0))
        latency = snapshot.get("admission_latency", {})
        if int(latency.get("count", 0)) > 0:
            shard = LogBucketHistogram.from_payload(latency["hist"])
            if hist is None:
                hist = shard
            else:
                hist.merge(shard)

    if hist is None:
        merged["admission_latency"] = _zero_latency_summary()
    else:
        latency_out: dict[str, object] = dict(hist.summary())
        latency_out["hist"] = hist.to_payload()
        merged["admission_latency"] = latency_out
    return merged
