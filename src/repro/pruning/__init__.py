"""The probabilistic pruning mechanism (deferring + dropping, Section V)."""

from .fairness import SufferageTracker
from .oversubscription import (
    ExponentialMovingAverage,
    OversubscriptionDetector,
    SchmittTrigger,
)
from .pruner import Pruner, QueuePruneReport
from .thresholds import (
    PruningThresholds,
    skewness_position_adjustment,
)

__all__ = [
    "Pruner",
    "QueuePruneReport",
    "PruningThresholds",
    "skewness_position_adjustment",
    "OversubscriptionDetector",
    "ExponentialMovingAverage",
    "SchmittTrigger",
    "SufferageTracker",
]
