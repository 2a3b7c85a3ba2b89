"""Fixed-size log-bucketed histograms with pinned quantile semantics.

:class:`LogBucketHistogram` is the one histogram schema every telemetry
surface in the tree shares: span/kernel timings in :mod:`repro.obs.telemetry`
and the admission-latency figures of :mod:`repro.serve.metrics` all record
into it.  Memory is **bounded by construction** — a fixed array of bucket
counters plus four exact scalars (count, total, min, max) — so a histogram
that records a billion samples is exactly as large as one that recorded ten.

Quantile semantics (pinned)
---------------------------
Samples land in log-spaced buckets: ``buckets_per_decade`` buckets per
decade between ``lo`` and ``hi``, one underflow-inclusive first bucket and
one overflow bucket above ``hi``.  ``percentile(q)`` is the *nearest-rank*
quantile over the bucket counts, reported as the **upper edge of the bucket
holding that rank, clamped to the exact recorded maximum** — a deterministic
upper bound on the true quantile, tight to one bucket's relative width
(``10**(1/buckets_per_decade) - 1``, ~15.5% at the default 16 buckets per
decade).  ``mean``/``min``/``max``/``count`` are exact.
"""

from __future__ import annotations

import math

__all__ = ["LogBucketHistogram"]


class LogBucketHistogram:
    """Bounded log-bucketed histogram over positive magnitudes.

    Parameters
    ----------
    lo:
        Lower edge of the first regular bucket; smaller samples count into
        the first bucket (it doubles as the underflow bucket).
    hi:
        Upper edge of the last regular bucket; samples at or above it land
        in the overflow bucket (whose reported upper edge is ``inf``, but
        quantiles clamp to the exact max).
    buckets_per_decade:
        Resolution: relative bucket width is ``10**(1/bpd) - 1``.
    """

    __slots__ = ("lo", "hi", "buckets_per_decade", "_counts", "_scale",
                 "count", "total", "min", "max")

    def __init__(
        self,
        *,
        lo: float = 1e-7,
        hi: float = 1e4,
        buckets_per_decade: int = 16,
    ) -> None:
        if not (0.0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be at least 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.hi / self.lo)
        n = int(math.ceil(decades * self.buckets_per_decade - 1e-9))
        #: Regular buckets plus one overflow slot at the end.
        self._counts = [0] * (n + 1)
        self._scale = self.buckets_per_decade / math.log(10.0)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one sample (finite, non-negative)."""
        value = float(value)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(
                f"histogram samples must be finite and non-negative, got {value!r}"
            )
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._counts[self._index(value)] += 1

    def _index(self, value: float) -> int:
        if value < self.lo:
            return 0
        if value >= self.hi:
            return len(self._counts) - 1
        index = int(math.log(value / self.lo) * self._scale)
        # Guard the floating-point boundary cases exactly once.
        return min(max(index, 0), len(self._counts) - 2)

    def bucket_upper_edge(self, index: int) -> float:
        """Upper edge of bucket ``index`` (``inf`` for the overflow bucket)."""
        if index >= len(self._counts) - 1:
            return math.inf
        return self.lo * 10.0 ** ((index + 1) / self.buckets_per_decade)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Pinned nearest-rank quantile (see the module docstring)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank:
                return min(self.bucket_upper_edge(index), self.max)
        return self.max  # pragma: no cover - counts always sum to self.count

    def summary(self) -> dict[str, float]:
        """Headline figures (keys shared with the serve metrics schema)."""
        if self.count == 0:
            nan = float("nan")
            return {"count": 0, "mean_s": nan, "p50_s": nan, "p95_s": nan,
                    "p99_s": nan, "max_s": nan}
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(50.0),
            "p95_s": self.percentile(95.0),
            "p99_s": self.percentile(99.0),
            "max_s": self.max,
        }

