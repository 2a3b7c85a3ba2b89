"""Completion-time PMFs in the presence of task dropping (paper Section IV).

Given the execution-time PMF of a task (a PET entry) and the completion-time
PMF (PCT) of the task immediately ahead of it in a machine queue, this module
computes the task's own completion-time PMF under the three dropping regimes
of the paper, one :class:`DroppingPolicy` each:

* ``NONE`` — Eq. 2, plain convolution, every mapped task runs to
  completion.
* ``PENDING`` — Eqs. 3-4, a *pending* task is dropped when its deadline
  passes before it starts; the machine then becomes free when the
  predecessor finishes.
* ``EVICT`` — Eq. 5, *any* task (including the executing one) is dropped
  at its deadline; all residual mass collapses onto the deadline.

Throughout, the returned PMF is best read as "the time at which the machine
becomes available after dealing with this task" — which equals the task's
completion time whenever the task actually completes.  This is exactly the
quantity that must be convolved with the next task's PET (the paper re-uses
the symbol PCT for it).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

import numpy as np

from .pmf import MASS_TOLERANCE, DiscretePMF, convolve_probs

__all__ = [
    "DroppingPolicy",
    "ChainStep",
    "completion_step",
    "chain_step",
    "queue_completion_pmfs",
]


class DroppingPolicy(enum.Enum):
    """Which tasks the system is allowed to drop (Section IV, cases A-C)."""

    #: Case A — no task is ever dropped once mapped.
    NONE = "none"
    #: Case B — only tasks that have not started executing may be dropped.
    PENDING = "pending"
    #: Case C — any task, including the executing one, may be dropped
    #: (evicted) once its deadline passes.
    EVICT = "evict"


class ChainStep(NamedTuple):
    """What one availability-chain step computes, kept together."""

    #: Availability of the machine after the task (impulse cap applied) —
    #: what the next queued task's PET entry is convolved with.
    availability: DiscretePMF
    #: Probability the task completes by its deadline, read before Eq. 5
    #: collapses the tail onto the deadline (that impulse is eviction).
    success_probability: float
    #: The completion PMF before the impulse cap (Eq. 6 reads its skewness).
    completion: DiscretePMF


def completion_step(
    pet: DiscretePMF,
    prev: DiscretePMF,
    deadline: int,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    max_impulses: int | None = None,
) -> ChainStep:
    """THE availability-chain step: Eqs. 2-5 and the impulse cap, computed once.

    Under ``PENDING`` the PET is convolved with the predecessor's PCT
    *truncated strictly below* the deadline (Eq. 3: the task starts) and
    the predecessor's mass at or after the deadline is added back unchanged
    (Eq. 4: dropped while pending, the machine frees when the predecessor
    finishes); under ``EVICT`` the started branch's mass at or after the
    deadline also collapses onto the deadline (Eq. 5).

    Every chain walk in the codebase — the incremental
    :class:`~repro.simulator.state.SystemState`, the mapper's virtual queue,
    the pruner's post-drop walk, :func:`queue_completion_pmfs` — advances
    through this function, so they are bit-identical by construction, and
    whoever needs the task's success probability or its pre-cap completion
    PMF takes them from the step instead of convolving again.
    """
    deadline = int(deadline)
    cut = _cut(prev, deadline, policy)
    probs = prev.probs
    offset = pet.offset + prev.offset
    if cut >= probs.size:
        started, mass = probs, prev.total_mass()
    elif cut > 0:
        started, mass = probs[:cut], float(prev.cumulative()[cut - 1])
    else:
        mass = 0.0
    if mass <= MASS_TOLERANCE:
        # Zero-mass conventions of the scalar algebra: Eq. 2 keeps the summed
        # offset, an empty started branch is ``DiscretePMF.zero()``.
        ran, offset = np.array([0.0]), (offset if policy is DroppingPolicy.NONE else 0)
    elif pet.is_zero():
        ran = np.array([0.0])
    else:
        nonzero = prev.nonzero_count() if started is probs else int(np.count_nonzero(started))
        ran = convolve_probs(pet.probs, pet.nonzero_count(), started, nonzero)
    return _finish_step(ran, offset, prev, cut, deadline, policy, max_impulses)


def _cut(prev: DiscretePMF, deadline: int, policy: DroppingPolicy) -> int:
    """Bins of ``prev`` strictly before the deadline (all of them for Eq. 2)."""
    if policy is DroppingPolicy.NONE:
        return prev.probs.size
    if policy is DroppingPolicy.PENDING or policy is DroppingPolicy.EVICT:
        return deadline - prev.offset
    raise ValueError(f"unknown dropping policy: {policy!r}")


def _finish_step(
    ran: np.ndarray,
    offset: int,
    prev: DiscretePMF,
    cut: int,
    deadline: int,
    policy: DroppingPolicy,
    max_impulses: int | None,
) -> ChainStep:
    """Everything behind the convolution ``ran`` (at ``offset``) of one step.

    One ``cumsum`` serves the success probability and the total mass, both
    branches are written into one vector, one non-zero scan serves
    compaction and the impulse cap.
    """
    cumulative = ran.cumsum()
    at = deadline - offset
    prob = 0.0 if at < 0 else min(1.0, float(cumulative[min(at, ran.size - 1)]))
    spike = None
    if policy is DroppingPolicy.EVICT:
        total = float(cumulative[-1])
        if total <= MASS_TOLERANCE:
            ran = ran[:0]
        elif at <= 0:
            ran, offset, spike, at = ran[:0], deadline, total, 0
        elif at < ran.size:
            tail = float(ran[at:].cumsum()[-1])
            ran = ran[:at]
            if tail > MASS_TOLERANCE:
                spike = tail
    lo, hi = offset, offset + ran.size + (spike is not None)
    dropped = None
    if cut < prev.probs.size and policy is not DroppingPolicy.NONE:
        # Predecessor mass at or after the deadline: dropped while pending.
        if cut <= 0:
            dropped, dropped_at, mass = prev.probs, prev.offset, prev.total_mass()
        else:
            dropped, dropped_at = prev.probs[cut:], deadline
            mass = float(dropped.cumsum()[-1])
        if mass <= MASS_TOLERANCE:
            dropped = None
        elif hi == lo:
            lo, hi = dropped_at, dropped_at + dropped.size
        else:
            lo, hi = min(lo, dropped_at), max(hi, dropped_at + dropped.size)
    if dropped is None and spike is None:
        merged = ran if ran.size else np.array([0.0])
    else:
        merged = np.zeros(hi - lo, dtype=np.float64)
        merged[offset - lo : offset - lo + ran.size] = ran
        if spike is not None:
            merged[offset - lo + at] = spike
        if dropped is not None:
            merged[dropped_at - lo : dropped_at - lo + dropped.size] += dropped
    completion = DiscretePMF._raw(merged, lo)._compact(merged.nonzero()[0])
    availability = completion if max_impulses is None else completion._rebin(max_impulses)
    return ChainStep(availability, prob, completion)


def chain_step(
    pet: DiscretePMF,
    prev: DiscretePMF,
    deadline: int,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    max_impulses: int | None = None,
) -> DiscretePMF:
    """The availability :func:`completion_step` leaves behind."""
    return completion_step(pet, prev, deadline, policy, max_impulses).availability


def queue_completion_pmfs(
    pets: Sequence[DiscretePMF],
    deadlines: Sequence[int],
    *,
    start: DiscretePMF,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    max_impulses: int | None = None,
) -> list[DiscretePMF]:
    """Propagate completion-time PMFs down an entire machine queue.

    Parameters
    ----------
    pets:
        Execution-time PMF of each queued task, head of the queue first.
    deadlines:
        Deadline of each queued task (same order).
    start:
        Availability PMF of the machine before the head task (a point mass at
        the current time for an idle machine, or the remaining-work PMF of the
        executing task).
    policy:
        Dropping regime used for the chain.
    max_impulses:
        Optional impulse-aggregation cap applied after every step, the
        approximation the paper suggests to bound convolution cost.

    Returns
    -------
    list of DiscretePMF
        ``result[k]`` is the availability PMF of the machine after the k-th
        queued task (equivalently that task's PCT when it completes).
    """
    if len(pets) != len(deadlines):
        raise ValueError("pets and deadlines must have the same length")
    out: list[DiscretePMF] = []
    prev = start
    for pet, deadline in zip(pets, deadlines):
        prev = chain_step(pet, prev, deadline, policy, max_impulses)
        out.append(prev)
    return out
