"""Summary statistics used by the experiment harness.

The paper reports the mean and the 95 % confidence interval over 30 workload
trials; :func:`summarize` reproduces that using a Student-t interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["confidence_interval_95", "Summary", "summarize"]


def confidence_interval_95(values: Sequence[float]) -> float:
    """Half-width of the 95 % Student-t confidence interval of the mean.

    Returns 0.0 when fewer than two samples are available (no spread can be
    estimated) — this keeps single-trial smoke runs well defined.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return 0.0
    # The package's only use of scipy, which takes ~1 s to import: not a module-level import.
    from scipy import stats as sp_stats

    sem = sp_stats.sem(arr)
    if sem == 0.0:
        return 0.0
    t_crit = sp_stats.t.ppf(0.975, df=arr.size - 1)
    return float(t_crit * sem)


@dataclass(frozen=True)
class Summary:
    """Mean, spread and extremes of one experiment series."""

    mean: float
    ci95: float
    std: float
    minimum: float
    maximum: float
    n: int

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "ci95": self.ci95,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "n": float(self.n),
        }


def summarize(values: Sequence[float]) -> Summary:
    """Full summary of a series of per-trial measurements."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        nan = float("nan")
        return Summary(nan, 0.0, nan, nan, nan, 0)
    return Summary(
        mean=float(arr.mean()),
        ci95=confidence_interval_95(arr),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        n=int(arr.size),
    )
