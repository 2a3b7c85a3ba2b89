"""Streaming progress reports for sweep runs.

The executor emits one :class:`PointReport` per completed sweep point (cache
hits included, flagged as such).  A *reporter* is any callable accepting the
report; :class:`StreamReporter` renders human-readable lines, and the default
``None`` keeps programmatic runs silent.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import IO, Callable, Optional

from .trial import TrialMetrics

__all__ = ["PointReport", "ProgressCallback", "StreamReporter"]


@dataclass(frozen=True)
class PointReport:
    """Summary of one finished sweep point, streamed as the sweep runs."""

    index: int
    total: int
    label: str
    key: str
    cached: bool
    trials: int
    mean_robustness: float
    seconds: float

    @classmethod
    def from_trials(
        cls,
        trials: list[TrialMetrics],
        *,
        index: int,
        total: int,
        label: str,
        key: str,
        cached: bool,
        seconds: float,
    ) -> "PointReport":
        mean = (
            sum(t.robustness_percent for t in trials) / len(trials) if trials else float("nan")
        )
        return cls(
            index=index,
            total=total,
            label=label,
            key=key,
            cached=cached,
            trials=len(trials),
            mean_robustness=mean,
            seconds=seconds,
        )


ProgressCallback = Callable[[PointReport], None]


class StreamReporter:
    """Writes one aligned line per finished point to a text stream."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def __call__(self, report: PointReport) -> None:
        source = "cache" if report.cached else f"{report.seconds:5.1f}s"
        self._stream.write(
            f"[{report.index + 1:>3}/{report.total}] {report.label:<32} "
            f"robustness {report.mean_robustness:6.2f}%  "
            f"({report.trials} trials, {source})\n"
        )
        self._stream.flush()
