"""Fast scoring primitives shared by the mapping heuristics.

Phase 1 of every batch heuristic evaluates each unmapped task against every
machine.  Doing a full completion-time convolution for each candidate pair
would dominate the simulation cost, so this module provides shortcuts:

* :func:`fast_success_probability` computes P(start + execution <= deadline)
  directly from the machine-availability impulses and the execution-time
  CDF — mathematically identical to Eq. 1 on the convolved PMF but O(|avail|
  x 1) instead of O(|avail| x |exec|).
* :func:`expected_completion` uses linearity of expectation instead of
  convolving.

Both are the *exact scalar counterparts* of the batched scoring in
:class:`~repro.heuristics.base.ScoreTable`: they compute the same elementwise
values over the same impulses in the same order as a one-task,
one-machine invocation of :func:`~repro.core.batch.packed_success_probability`
(sequential ``np.cumsum`` reduction included) and as the table's sum of
availability and execution means, so scoring one pair at a time or a whole
``(n_tasks, n_machines)`` grid at once produces bit-identical values — the
equivalence is pinned at ``atol=0`` by ``tests/core/test_batch.py``.
``ScoreTable`` in :mod:`repro.heuristics.base` uses the batched form; the
expensive convolution is only performed once a pair is actually committed
to a virtual queue.
"""

from __future__ import annotations

import numpy as np

from ..core.pmf import DiscretePMF

__all__ = ["fast_success_probability", "expected_completion", "urgency"]


def fast_success_probability(
    exec_pmf: DiscretePMF, availability: DiscretePMF, deadline: int
) -> float:
    """Probability that a task mapped behind ``availability`` meets ``deadline``.

    Equivalent to convolving the availability and execution PMFs and applying
    Eq. 1, but computed as

        sum_t  P(available at t) * P(execution <= deadline - t)

    restricted to start times strictly before the deadline (a task starting
    at or after its deadline can never succeed because execution takes at
    least one time unit).

    Parameters
    ----------
    exec_pmf:
        Execution-time PMF of the task's type on the candidate machine (a
        PET entry).
    availability:
        Availability PMF of the machine's (virtual) queue; may be
        sub-normalised or zero-mass.
    deadline:
        Absolute deadline of the task.

    Returns
    -------
    float
        Success probability in ``[0, 1]``; ``0.0`` for a zero-mass
        availability.

    Notes
    -----
    Exact scalar counterpart of
    :func:`repro.core.batch.packed_success_probability`: same elementwise
    values over the availability's impulses in ascending time order, same
    strict left-to-right reduction — bit-identical to scoring the same pair
    inside any larger call, without the call's set-up cost.
    """
    deadline = int(deadline)
    start_times, start_probs = availability.impulses()
    if start_times.size == 0:
        return 0.0
    cdf = exec_pmf.cumulative()
    budgets = deadline - start_times - exec_pmf.offset
    clipped = np.minimum(budgets, cdf.size - 1)
    usable = (start_times < deadline) & (clipped >= 0)
    contributions = np.where(usable, cdf[np.maximum(clipped, 0)], 0.0) * start_probs
    return float(min(1.0, np.cumsum(contributions)[-1]))


def expected_completion(exec_pmf: DiscretePMF, availability: DiscretePMF) -> float:
    """Expected completion time: E[availability] + E[execution].

    Parameters
    ----------
    exec_pmf:
        Execution-time PMF of the candidate (task type, machine) pair.
    availability:
        Availability PMF of the machine's (virtual) queue.

    Returns
    -------
    float
        ``availability.mean() + exec_pmf.mean()`` — linearity of
        expectation, no convolution needed; ``nan`` if either PMF carries no
        mass.

    Notes
    -----
    The batched counterpart is ``ScoreTable``'s completion grid, which adds
    the same two cached means per pair in the same order (hence
    bit-identical — IEEE addition of identical operands is deterministic).
    """
    return float(availability.mean() + exec_pmf.mean())


def urgency(deadline, expected_completion_time):
    """MMU urgency U = 1 / (deadline - E[completion]) (Section VI-C3).

    Parameters
    ----------
    deadline:
        Absolute deadline of the task(s): a number or an array.
    expected_completion_time:
        Expected completion time(s) from :func:`expected_completion`.

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
