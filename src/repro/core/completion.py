"""Completion-time PMFs in the presence of task dropping (paper Section IV).

Given the execution-time PMF of a task (a PET entry) and the completion-time
PMF (PCT) of the task immediately ahead of it in a machine queue, this module
computes the task's own completion-time PMF under the three dropping regimes
of the paper:

* :func:`pct_no_drop` — Eq. 2, plain convolution, every mapped task runs to
  completion.
* :func:`pct_pending_drop` — Eqs. 3-4, a *pending* task is dropped when its
  deadline passes before it starts; the machine then becomes free when the
  predecessor finishes.
* :func:`pct_evict_drop` — Eq. 5, *any* task (including the executing one) is
  dropped at its deadline; all residual mass collapses onto the deadline.

Throughout, the returned PMF is best read as "the time at which the machine
becomes available after dealing with this task" — which equals the task's
completion time whenever the task actually completes.  This is exactly the
quantity that must be convolved with the next task's PET (the paper re-uses
the symbol PCT for it).
"""

from __future__ import annotations

import enum
from typing import Sequence

from .batch import PMFBatch
from .kernels import active_backend
from .pmf import DiscretePMF

__all__ = [
    "DroppingPolicy",
    "pct_no_drop",
    "pct_pending_drop",
    "pct_evict_drop",
    "completion_pmf",
    "completion_and_success",
    "chain_step",
    "batched_completion_step",
    "queue_completion_pmfs",
    "start_pmf_for_idle_machine",
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


def start_pmf_for_idle_machine(current_time: int) -> DiscretePMF:
    """Availability PMF of an idle machine: a unit impulse at ``current_time``.

    Convolving a PET entry with this point mass is the "shift by the arrival
    time" of Section IV.
    """
    return DiscretePMF.point(int(current_time))


def pct_no_drop(pet: DiscretePMF, prev_pct: DiscretePMF) -> DiscretePMF:
    """Eq. 2 — completion time when no mapped task can be dropped.

    ``PCT(i, j) = PET(i, j) * PCT(i-1, j)`` (discrete convolution).
    """
    return pet.convolve(prev_pct).compact()


def pct_pending_drop(pet: DiscretePMF, prev_pct: DiscretePMF, deadline: int) -> DiscretePMF:
    """Eqs. 3-4 — completion time when pending tasks can be dropped.

    If the predecessor finishes at or after ``deadline`` the task never
    starts (it is dropped while pending), so the machine becomes available
    exactly when the predecessor finishes.  Otherwise the task executes
    normally.  In PMF terms:

    * convolve the PET with the predecessor's PCT *truncated strictly below*
      the deadline (the helper ``f(t, k)`` of Eq. 3),
    * add back the predecessor's mass at or after the deadline unchanged
      (the ``c_pend(i-1,j)(t)`` pass-through term of Eq. 4).
    """
    return _merge(_ran(pet, prev_pct, deadline), prev_pct, deadline)


def pct_evict_drop(pet: DiscretePMF, prev_pct: DiscretePMF, deadline: int) -> DiscretePMF:
    """Eq. 5 — completion time when even the executing task can be dropped.

    The task is guaranteed to leave the machine by its deadline: either it
    completes before the deadline, or it is evicted exactly at the deadline.
    Therefore all mass of the "task actually ran" branch that lands at or
    after the deadline is aggregated into a single impulse at the deadline
    (the task is killed the moment the deadline passes).  The predecessor
    mass at or after the deadline — the case where the task is dropped while
    still pending — is preserved at the predecessor's completion times, as
    the paper notes those "discarded impulses ... must be added to C_ij".
    """
    return _merge(_ran(pet, prev_pct, deadline).collapse_tail_to(deadline), prev_pct, deadline)


def _ran(pet: DiscretePMF, prev_pct: DiscretePMF, deadline: int) -> DiscretePMF:
    """Eq. 3's truncated convolution, the branch where the task starts."""
    started = prev_pct.truncate_before(deadline)
    return DiscretePMF.zero() if started.is_zero() else pet.convolve(started)


def _merge(ran: DiscretePMF, prev_pct: DiscretePMF, deadline: int) -> DiscretePMF:
    """Add back the predecessor mass at or after ``deadline`` (dropped while pending)."""
    dropped = prev_pct.truncate_from(deadline)
    return (ran if dropped.is_zero() else ran.add(dropped)).compact()


def completion_pmf(
    pet: DiscretePMF,
    prev_pct: DiscretePMF,
    deadline: int,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
) -> DiscretePMF:
    """Dispatch to the completion-time formula matching ``policy``."""
    if policy is DroppingPolicy.NONE:
        return pct_no_drop(pet, prev_pct)
    if policy is DroppingPolicy.PENDING:
        return pct_pending_drop(pet, prev_pct, deadline)
    if policy is DroppingPolicy.EVICT:
        return pct_evict_drop(pet, prev_pct, deadline)
    raise ValueError(f"unknown dropping policy: {policy!r}")


def completion_and_success(
    pet: DiscretePMF,
    prev_pct: DiscretePMF,
    deadline: int,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
) -> tuple[DiscretePMF, float]:
    """:func:`completion_pmf` and the task's success probability, from one convolution.

    The probability is the mass of the branch where the task starts at or
    before the deadline, read before Eq. 5 collapses the tail onto the
    deadline (that impulse is eviction, not success).  The pruner needs both
    values for every task it examines.
    """
    deadline = int(deadline)
    if policy is DroppingPolicy.NONE:
        ran = pet.convolve(prev_pct)
        return ran.compact(), float(min(1.0, ran.cdf(deadline)))
    if policy is not DroppingPolicy.PENDING and policy is not DroppingPolicy.EVICT:
        raise ValueError(f"unknown dropping policy: {policy!r}")
    ran = _ran(pet, prev_pct, deadline)
    prob = float(min(1.0, ran.cdf(deadline)))
    if policy is DroppingPolicy.EVICT:
        ran = ran.collapse_tail_to(deadline)
    return _merge(ran, prev_pct, deadline), prob


def chain_step(
    pet: DiscretePMF,
    prev: DiscretePMF,
    deadline: int,
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    max_impulses: int | None = None,
) -> DiscretePMF:
    """THE availability-chain step: one queued task's completion PMF.

    ``completion_pmf`` under ``policy`` followed by the impulse-aggregation
    cap.  Every availability-chain walk in the codebase — the incremental
    :class:`~repro.simulator.state.SystemState`, its pruning-path
    ``availability_excluding`` variants, and the per-machine
    ``Machine.queue_snapshot`` reference path — must advance through this
    single helper so the paths stay bit-identical by construction.  The
    lockstep counterpart is :func:`batched_completion_step`.
    """
    out = completion_pmf(pet, prev, int(deadline), policy)
    if max_impulses is not None:
        out = out.aggregate(max_impulses)
    return out


def batched_completion_step(
    pets: Sequence[DiscretePMF],
    prevs: Sequence[DiscretePMF],
    deadlines: Sequence[int],
    policy: DroppingPolicy = DroppingPolicy.EVICT,
    *,
    max_impulses: int | None = None,
) -> list[DiscretePMF]:
    """Advance several *independent* completion chains one step, in lockstep.

    Row ``i`` computes ``completion_pmf(pets[i], prevs[i], deadlines[i],
    policy)`` (optionally followed by ``.aggregate(max_impulses)``) — one
    queue position of machine ``i``'s chain.  The expensive part, the
    convolution, runs through the ragged batch kernel
    :func:`repro.core.batch.batched_convolve_ragged` for every row whose
    scalar path would take the sparse shift-and-add branch of
    :meth:`DiscretePMF.convolve` with the (aggregated, hence sparse)
    predecessor PMF as the kernel; the remaining rows fall back to the
    scalar functions.  The per-deadline truncations and the policy
    bookkeeping are cheap slicing and stay scalar.

    Returns
    -------
    list of DiscretePMF
        ``result[i]`` is **bit-identical** (``atol=0``) to the scalar
        per-row step: the batched branch mirrors the scalar shift-and-add
        impulse order exactly and zero padding from the shared grid only
        contributes exact-zero terms.  ``repro.simulator.state.SystemState``
        relies on this to make its incremental and rebuild-from-scratch
        paths interchangeable.
    """
    pets = list(pets)
    prevs = list(prevs)
    deadlines = [int(d) for d in deadlines]
    if not (len(pets) == len(prevs) == len(deadlines)):
        raise ValueError("pets, prevs and deadlines must have the same length")
    n = len(pets)
    results: list[DiscretePMF | None] = [None] * n

    if policy is DroppingPolicy.NONE:
        started = prevs
        dropped: list[DiscretePMF | None] = [None] * n
    else:
        started = [prev.truncate_before(d) for prev, d in zip(prevs, deadlines)]
        dropped = [prev.truncate_from(d) for prev, d in zip(prevs, deadlines)]

    # Partition rows: batch the ones whose scalar convolve would do a
    # shift-and-add with the predecessor as the kernel; everything else
    # (zero-mass operands, dense-dense ``np.convolve`` rows, sparse-PET
    # rows) goes through the scalar step wholesale so the branch choice —
    # and therefore the bit pattern — matches the scalar path exactly.
    batch_rows: list[int] = []
    for i in range(n):
        pet, start = pets[i], started[i]
        if pet.is_zero() or start.is_zero():
            continue
        nnz_start = start.nonzero_count()
        nnz_pet = pet.nonzero_count()
        if nnz_start >= nnz_pet:
            continue  # scalar path would treat the PET entry as the kernel
        if nnz_start * pet.probs.size >= pet.probs.size * start.probs.size:
            continue  # scalar path would use the dense ``np.convolve``
        batch_rows.append(i)

    if batch_rows:
        dense = PMFBatch.from_pmfs([pets[i] for i in batch_rows])
        convolved = active_backend().convolve_ragged(
            dense, [started[i] for i in batch_rows]
        )
        for row, i in enumerate(batch_rows):
            ran = DiscretePMF._raw(convolved.probs[row].copy(), convolved.offset)
            if policy is DroppingPolicy.EVICT:
                ran = ran.collapse_tail_to(deadlines[i])
            drop = dropped[i]
            if drop is not None and not drop.is_zero():
                ran = ran.add(drop)
            results[i] = ran.compact()

    out: list[DiscretePMF] = []
    for i in range(n):
        result = results[i]
        if result is None:
            result = completion_pmf(pets[i], prevs[i], deadlines[i], policy)
        if max_impulses is not None:
            result = result.aggregate(max_impulses)
        out.append(result)
    return out


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
