"""PAM — the Pruning Aware Mapper (paper Section V-D1).

PAM is the paper's primary contribution: a robustness-based two-phase batch
heuristic wired to the probabilistic pruning mechanism.

At every mapping event PAM:

1. updates the oversubscription detector (Eq. 8 + Schmitt trigger) with the
   deadline misses observed since the previous event;
2. if the system is oversubscribed, walks every machine queue head-first and
   drops tasks whose success probability is at or below their dynamically
   adjusted dropping threshold (Eq. 7);
3. pairs every batch task with the machine giving it the highest robustness
   (phase 1), deferring tasks whose best robustness fails the deferring
   threshold;
4. commits, per iteration, the pair with the lowest expected completion time
   (phase 2), breaking ties by the shortest expected execution time.
"""

from __future__ import annotations

import numpy as np

from ..core.pmf import DiscretePMF
from ..pruning.oversubscription import OversubscriptionDetector
from ..pruning.pruner import Pruner
from ..pruning.thresholds import PruningThresholds
from ..simulator.mapping import MappingContext, MappingDecision
from .base import TwoPhaseBatchHeuristic

__all__ = ["PruningAwareMapper"]


class PruningAwareMapper(TwoPhaseBatchHeuristic):
    """The PAM heuristic (pruning mechanism + robustness-based mapping)."""

    name = "PAM"
    robustness_based = True
    records_deferrals = True

    def __init__(
        self,
        thresholds: PruningThresholds | None = None,
        *,
        detector: OversubscriptionDetector | None = None,
        pruner: Pruner | None = None,
        enable_dropping: bool = True,
        enable_deferring: bool = True,
    ) -> None:
        if pruner is not None:
            self.pruner = pruner
        else:
            self.pruner = Pruner(thresholds or PruningThresholds(), detector=detector)
        #: Ablation switches (used by the design-choice benchmarks).
        self.enable_dropping = bool(enable_dropping)
        self.enable_deferring = bool(enable_deferring)
        self._dropping_engaged = False

    # ------------------------------------------------------------------
    @property
    def thresholds(self) -> PruningThresholds:
        return self.pruner.thresholds

    def reset(self) -> None:
        super().reset()
        self.pruner.reset()
        self._dropping_engaged = False

    # ------------------------------------------------------------------
    # Pruning hooks
    # ------------------------------------------------------------------
    def on_event_start(self, context: MappingContext) -> None:
        self._dropping_engaged = self.pruner.observe_mapping_event(context)

    def pre_mapping(
        self, context: MappingContext, decision: MappingDecision
    ) -> tuple[set[int], dict[int, DiscretePMF] | None]:
        if not (self.enable_dropping and self._dropping_engaged):
            return set(), None
        drops, availability = self.pruner.select_queue_drops(context)
        for drop in drops:
            decision.queue_drops.append(drop)
        return {d.task_id for d in drops}, availability

    def filter_candidates(
        self, robustness: np.ndarray, task_types: np.ndarray
    ) -> np.ndarray | None:
        if not self.enable_deferring:
            return None
        return self.pruner.defer_mask(robustness, task_types)
