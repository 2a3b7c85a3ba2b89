"""Mapping heuristics: the paper's PAM/PAMF and the four baselines."""

from .base import (
    CandidatePair,
    MappingHeuristic,
    TwoPhaseBatchHeuristic,
    VirtualSystemState,
)
from .baselines import (
    MaxOntimeCompletions,
    MinCompletionMaxUrgency,
    MinCompletionMinCompletion,
    MinCompletionSoonestDeadline,
    urgency,
)
from .pam import PruningAwareMapper
from .pamf import FairPruningMapper
from .registry import HEURISTIC_NAMES, make_heuristic

__all__ = [
    "MappingHeuristic",
    "TwoPhaseBatchHeuristic",
    "CandidatePair",
    "VirtualSystemState",
    "MinCompletionMinCompletion",
    "MinCompletionSoonestDeadline",
    "MinCompletionMaxUrgency",
    "MaxOntimeCompletions",
    "PruningAwareMapper",
    "FairPruningMapper",
    "HEURISTIC_NAMES",
    "make_heuristic",
    "urgency",
]
