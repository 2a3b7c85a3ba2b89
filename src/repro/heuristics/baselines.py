"""Baseline mapping heuristics (paper Section VI-C).

Four baselines from the literature are reproduced for the comparison figures:

* **MM** — MinCompletion-MinCompletion (the classic MinMin batch heuristic).
* **MSD** — MinCompletion-SoonestDeadline.
* **MMU** — MinCompletion-MaxUrgency.
* **MOC** — Max Ontime Completions, the robustness-based heuristic of
  Salehi et al. [20] that PAM is closest to (it culls tasks below a 30 %
  robustness threshold but never drops mapped tasks).

All of them reuse the two-phase framework of
:class:`repro.heuristics.base.TwoPhaseBatchHeuristic`; only phase-1 objective
and phase-2 selection differ.
"""

from __future__ import annotations

import itertools

import numpy as np

from .base import CandidatePair, TwoPhaseBatchHeuristic

__all__ = [
    "MinCompletionMinCompletion",
    "MinCompletionSoonestDeadline",
    "MinCompletionMaxUrgency",
    "MaxOntimeCompletions",
    "urgency",
]


def urgency(deadline, expected_completion_time):
    """MMU urgency U = 1 / (deadline - E[completion]) (Section VI-C3).

    Parameters
    ----------
    deadline:
        Absolute deadline of the task(s): a number or an array.
    expected_completion_time:
        Expected completion time(s), ``E[availability] + E[execution]``
        (``ScoreTable.completion``).

    Returns
    -------
    float or np.ndarray
        The urgency, elementwise; ``inf`` where the expected completion
        already meets or exceeds the deadline.

    Notes
    -----
    Tasks whose expected completion already exceeds their deadline are the
    "least likely to succeed" tasks the paper criticises MMU for favouring;
    they are treated as maximally urgent (``inf``) so the reproduction keeps
    that behaviour.  One float64 subtraction and one division per element.
    """
    gap = np.subtract(deadline, expected_completion_time, dtype=np.float64)
    out = np.full(np.shape(gap), np.inf)
    np.divide(1.0, gap, out=out, where=~(gap <= 0))
    return out[()]


class MinCompletionMinCompletion(TwoPhaseBatchHeuristic):
    """MM: phase 1 minimum expected completion, phase 2 minimum completion.

    Ties in phase 2 are broken by the shortest mean execution time, matching
    the paper's description of the widely used MinMin heuristic (the
    default :meth:`~TwoPhaseBatchHeuristic.phase2_keys`).
    """

    name = "MM"
    robustness_based = False


class MinCompletionSoonestDeadline(TwoPhaseBatchHeuristic):
    """MSD: phase 1 as MM, phase 2 picks the task with the soonest deadline."""

    name = "MSD"
    robustness_based = False

    def phase2_keys(self, table, rows, machines):
        return table.deadlines[rows], table.completion[rows, machines], table.task_ids[rows]


class MinCompletionMaxUrgency(TwoPhaseBatchHeuristic):
    """MMU: phase 1 as MM, phase 2 picks the pair with the greatest urgency.

    Urgency is ``1 / (deadline - E[completion])``; pairs whose expected
    completion already exceeds the deadline are treated as maximally urgent,
    which reproduces the behaviour the paper criticises (MMU keeps picking
    tasks that are least likely to succeed).  Ties go to the lower expected
    completion, then to the lower task id.
    """

    name = "MMU"
    robustness_based = False

    def phase2_keys(self, table, rows, machines):
        completion = table.completion[rows, machines]
        return -urgency(table.deadlines[rows], completion), completion, table.task_ids[rows]


class MaxOntimeCompletions(TwoPhaseBatchHeuristic):
    """MOC: robustness-based baseline of Salehi et al. [20].

    Phase 1 pairs every task with the machine offering the highest
    robustness.  A culling phase removes (for this mapping event) the tasks
    that cannot reach the 30 % robustness threshold on any machine.  The last
    phase examines the three most robust provisional pairs, permutes their
    assignment order, and commits the first assignment of the order that
    maximises the summed robustness.
    """

    name = "MOC"
    robustness_based = True

    def __init__(self, *, culling_threshold: float = 0.30, permutation_depth: int = 3) -> None:
        if not 0.0 <= culling_threshold <= 1.0:
            raise ValueError("culling threshold must lie in [0, 1]")
        if permutation_depth < 1:
            raise ValueError("permutation depth must be at least one")
        self.culling_threshold = float(culling_threshold)
        self.permutation_depth = int(permutation_depth)

    def filter_candidates(
        self, robustness: np.ndarray, task_types: np.ndarray
    ) -> np.ndarray | None:
        return robustness < self.culling_threshold

    def phase2_keys(self, table, rows, machines):
        """The most robust pairs first, ties to the lower completion, then task id."""
        return (
            -table.robustness[rows, machines],
            table.completion[rows, machines],
            table.task_ids[rows],
        )

    def phase2_pick(self, table, rows, machines) -> int:
        order = np.lexsort(self.phase2_keys(table, rows, machines)[::-1])
        order = order[: self.permutation_depth].tolist()
        top = [
            CandidatePair(table.tasks[row], machine, float(table.robustness[row, machine]))
            for row, machine in zip(rows[order].tolist(), machines[order].tolist())
        ]
        best_order: tuple[int, ...] = (0,)
        best_score = float("-inf")
        for permutation in itertools.permutations(range(len(top))):
            # Approximate the interaction between the top pairs: a pair whose
            # machine was already taken earlier in the order contributes a
            # discounted robustness (it would be queued behind the earlier
            # assignment).
            used: dict[int, int] = {}
            score = 0.0
            for pair in (top[i] for i in permutation):
                depth = used.get(pair.machine_index, 0)
                score += pair.robustness / (depth + 1)
                used[pair.machine_index] = depth + 1
            if score > best_score:
                best_score = score
                best_order = permutation
        return order[best_order[0]]
