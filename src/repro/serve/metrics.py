"""Counters and latency histograms for the scheduler service.

:class:`ServiceMetrics` is deliberately dependency-free and synchronous —
the admission loop updates it inline, and ``stats`` requests serialise a
snapshot.  The latency histogram is the shared bounded log-bucketed schema
from :mod:`repro.obs.histogram`: **fixed memory however long the service
lives** (the pre-obs implementation kept every recorded sample, which grew
without bound on a long-lived service), exact count/mean/max, and pinned
upper-bound quantile semantics (nearest rank over the log buckets, clamped
to the exact max — see :class:`~repro.obs.histogram.LogBucketHistogram`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..obs.histogram import LogBucketHistogram

__all__ = ["LatencyHistogram", "ServiceMetrics"]


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
    #: full) — these never reach the engine and are answered
    #: ``accepted=false``.
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
        """JSON-serialisable copy of every counter plus latency summary."""
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
            "admission_latency": self.admission.summary(),
        }

