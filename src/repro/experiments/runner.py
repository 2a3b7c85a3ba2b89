"""Multi-trial experiment runner (paper Section VII-A).

Every data point in the paper is the mean (with 95 % confidence interval) of
30 workload trials that share the arrival rate and pattern but use different
arrival times.  :class:`SeriesResult` holds one data point's trials and
their summaries; the trials themselves run through the sweep subsystem
(:func:`repro.sweep.run_sweep`, or :func:`repro.sweep.execute_point` for
one point in-process), where each trial generates a fresh workload trace
from an independent random stream and simulates it with a freshly built
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..sweep.trial import TrialMetrics
from ..utils.stats import Summary, summarize

__all__ = ["TrialMetrics", "SeriesResult"]


@dataclass
class SeriesResult:
    """All trials of one experiment data point plus their summaries."""

    label: str
    trials: list[TrialMetrics] = field(default_factory=list)

    # ------------------------------------------------------------------
    def robustness(self) -> Summary:
        return summarize([t.robustness_percent for t in self.trials])

    def fairness_variance(self) -> Summary:
        return summarize([t.fairness_variance for t in self.trials])

    def cost(self) -> Summary:
        return summarize([t.total_cost for t in self.trials])

    def cost_per_percent(self) -> Summary:
        values = [
            t.cost_per_percent_on_time
            for t in self.trials
            if np.isfinite(t.cost_per_percent_on_time)
        ]
        return summarize(values)

    def mean_robustness(self) -> float:
        return self.robustness().mean
