"""Task robustness — the probability of meeting a deadline (paper Eq. 1).

Robustness of a task/machine pair is the probability that the task completes
at or before its deadline, evaluated on its completion-time PMF.  For the
evict-capable dropping regime the aggregated impulse at the deadline produced
by Eq. 5 represents *eviction*, not success, so the success probability must
be computed from the pre-aggregation chain; :func:`success_probability` takes
care of that distinction so callers never have to.
"""

from __future__ import annotations

from typing import Sequence

from .completion import DroppingPolicy, completion_step
from .pmf import DiscretePMF

__all__ = [
    "robustness_of_pct",
    "success_probability",
    "queue_success_probabilities",
]


def robustness_of_pct(pct: DiscretePMF, deadline: int) -> float:
    """Eq. 1 — probability mass of the completion-time PMF at or before ``deadline``."""
    return float(min(1.0, pct.cdf(int(deadline))))


def success_probability(
    pet: DiscretePMF,
    prev_pct: DiscretePMF,
    deadline: int,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
) -> float:
    """Probability that a task genuinely completes by its deadline.

    Parameters mirror :func:`repro.core.completion.completion_pmf`.  Under
    :class:`DroppingPolicy.NONE` this is Eq. 1 applied to the plain
    convolution.  Under the dropping policies, the task only succeeds when
    the predecessor frees the machine *before* the task's deadline **and**
    the execution finishes by the deadline; mass routed through the dropped
    branches is excluded.
    """
    return completion_step(pet, prev_pct, deadline, policy).success_probability


def queue_success_probabilities(
    pets: Sequence[DiscretePMF],
    deadlines: Sequence[int],
    *,
    start: DiscretePMF,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    max_impulses: int | None = None,
) -> list[float]:
    """Success probability of every task in a machine queue, head first.

    The chain of availability PMFs is propagated with the requested dropping
    policy (Eqs. 2-5) while each task's own success probability is computed
    from the pre-aggregation branch, one :func:`completion_step` per task.
    """
    if len(pets) != len(deadlines):
        raise ValueError("pets and deadlines must have the same length")
    probs: list[float] = []
    prev = start
    for pet, deadline in zip(pets, deadlines):
        step = completion_step(pet, prev, deadline, policy, max_impulses)
        probs.append(step.success_probability)
        prev = step.availability
    return probs
