"""Dropping and deferring thresholds (paper Section V-B).

The pruner uses two probability thresholds:

* the **dropping threshold** — a mapped task whose success probability is at
  or below it is removed from its machine queue when dropping is engaged;
* the **deferring threshold** — an unmapped task whose best achievable
  success probability is below it is not mapped this event and waits in the
  batch queue for a better match.

The paper finds that the deferring threshold should be *higher* than the
dropping threshold (Section V-B2, Figure 5) and that the dropping threshold
should be adjusted per task using the skewness of its completion-time PMF and
its position in the machine queue (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pmf import DiscretePMF

__all__ = ["PruningThresholds", "adjusted_dropping_threshold", "skewness_position_adjustment"]


def skewness_position_adjustment(
    skewness: float, queue_position: int, *, rho: float = 0.05
) -> float:
    """Eq. 7 — the additive adjustment ``phi_i`` to the base dropping threshold.

    Parameters
    ----------
    skewness:
        Bounded skewness ``s`` of the task's completion-time PMF
        (−1 ≤ s ≤ 1, Eq. 6).  Positive skew (task likely to finish early)
        *lowers* the threshold so the task is kept; negative skew raises it.
    queue_position:
        ``kappa_i`` — 0 for the executing task / queue head; the influence of
        the adjustment decays with distance from the head because fewer tasks
        are affected by a task deep in the queue.
    rho:
        Scale parameter of the adjustment.
    """
    if queue_position < 0:
        raise ValueError("queue position must be non-negative")
    if not -1.0 - 1e-9 <= skewness <= 1.0 + 1e-9:
        raise ValueError("skewness must be the bounded value in [-1, 1]")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    return (-skewness * rho) / (queue_position + 1)


def adjusted_dropping_threshold(
    base_threshold: float,
    completion_pmf: DiscretePMF,
    queue_position: int,
    *,
    rho: float = 0.05,
) -> float:
    """Dynamic per-task dropping threshold ``base + phi_i`` clipped to [0, 1]."""
    phi = skewness_position_adjustment(
        completion_pmf.bounded_skewness(), queue_position, rho=rho
    )
    return float(min(1.0, max(0.0, base_threshold + phi)))


@dataclass(frozen=True)
class PruningThresholds:
    """Base probability thresholds of the pruning mechanism.

    The paper's final configuration is a 50 % dropping threshold and a 90 %
    deferring threshold (Section VII-C); ``rho`` scales the per-task
    adjustment of Eq. 7.
    """

    dropping: float = 0.50
    deferring: float = 0.90
    rho: float = 0.05
    #: When True the dropping threshold is adjusted per task with Eq. 7.
    dynamic_per_task: bool = True

    def __post_init__(self) -> None:
        for name, value in (("dropping", self.dropping), ("deferring", self.deferring)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} threshold must lie in [0, 1], got {value}")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if self.deferring < self.dropping:
            raise ValueError(
                "the deferring threshold must be at least the dropping threshold "
                "(Section V-B2: a lower deferring threshold maps tasks that would "
                "immediately be dropped)"
            )

    # ------------------------------------------------------------------
    def dropping_threshold_for(
        self,
        completion_pmf: DiscretePMF | None = None,
        queue_position: int = 0,
        *,
        sufferage: float = 0.0,
    ) -> float:
        """Effective dropping threshold for one queued task.

        ``sufferage`` is the PAMF fairness relaxation (subtracted from the
        base threshold); the Eq. 7 adjustment is applied when a completion
        PMF is supplied and per-task dynamics are enabled.
        """
        if completion_pmf is None or not self.dynamic_per_task:
            return float(min(1.0, max(0.0, self.dropping - max(0.0, sufferage))))
        return self.dropping_threshold_for_skewness(
            completion_pmf.bounded_skewness(), queue_position, sufferage=sufferage
        )

    def dropping_threshold_for_skewness(
        self,
        skewness: float,
        queue_position: int = 0,
        *,
        sufferage: float = 0.0,
    ) -> float:
        """:meth:`dropping_threshold_for` from a bounded skewness in hand."""
        base = max(0.0, self.dropping - max(0.0, sufferage))
        if not self.dynamic_per_task:
            return float(min(1.0, base))
        phi = skewness_position_adjustment(skewness, queue_position, rho=self.rho)
        return float(min(1.0, max(0.0, base + phi)))

    def dropping_threshold_ceiling(
        self, queue_position: int = 0, *, sufferage: float = 0.0
    ) -> float:
        """The largest dropping threshold any bounded skewness can give: ``T(s = -1)``.

        Eq. 7's threshold is non-increasing in ``s`` in floating point too:
        the negation is exact, and ``x * rho`` (``rho >= 0``), ``x / (kappa +
        1)``, ``base + x`` and the clamp are each monotone under
        round-to-nearest.  So a task whose success probability exceeds this
        ceiling is kept at every ``s`` in ``[-1, 1]`` — the pruner decides it
        without computing a skewness.
        """
        return self.dropping_threshold_for_skewness(-1.0, queue_position, sufferage=sufferage)

    def deferring_threshold_for(self, *, sufferage: float = 0.0) -> float:
        """Effective deferring threshold, relaxed by the PAMF sufferage value."""
        return float(min(1.0, max(0.0, self.deferring - max(0.0, sufferage))))

    def should_drop(self, success_probability: float, threshold: float) -> bool:
        """Drop when robustness is *at or below* the threshold (Section V-A)."""
        return success_probability <= threshold

    def should_defer(self, success_probability: float, threshold: float) -> bool:
        """Defer when the best robustness fails to *meet* the threshold."""
        return success_probability < threshold

    def with_gap(self, gap: float) -> "PruningThresholds":
        """A copy whose deferring threshold is ``dropping + gap`` (Figure 5 sweep)."""
        return PruningThresholds(
            dropping=self.dropping,
            deferring=float(min(1.0, self.dropping + gap)),
            rho=self.rho,
            dynamic_per_task=self.dynamic_per_task,
        )
