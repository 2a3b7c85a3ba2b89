"""The paper's PMF equations on sorted ``{time: probability}`` dicts.

A PMF here is a dict of its non-zero impulses, keys ascending.  Every sum
runs in the order the engine's docstrings fix, so the model and the engine
agree bit for bit:

* a running sum adds left to right in ascending time (``np.cumsum``,
  ``sequential_sum``); a zero bin of the engine's array adds an exact zero;
* a convolution adds, at each output time, the products of the sparse
  operand's impulses in ascending time (``shift_and_add``), the operands
  chosen by ``convolve_probs``' rule.  Where that rule takes the dense
  ``np.convolve`` branch BLAS picks the order, so the model calls
  ``convolve_probs`` there;
* the cap adds each group in input order and rounds its centre half to
  even (``DiscretePMF._rebin``'s ``bincount`` and ``np.rint``).

A PMF taken from the library (:func:`of`) must be compact, because the
operand rule reads the width of its array: the span of its impulses.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.core.completion import DroppingPolicy
from repro.core.pmf import MASS_TOLERANCE, DiscretePMF, convolve_probs

#: The impulse cap the engine applies after every chain step by default.
CAP = 32


def of(pmf: DiscretePMF) -> dict[int, float]:
    """The impulses of a compact library PMF (no zero bin at either end)."""
    impulses = pmf.to_impulses()
    if impulses:
        assert pmf.probs[0] != 0.0 and pmf.probs[-1] != 0.0, "the PMF is not compact"
    return impulses


def total(values) -> float:
    """Left-to-right sum."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


def width(pmf: dict[int, float]) -> int:
    """Bins of the compact array holding ``pmf``."""
    return max(pmf) - min(pmf) + 1


def cdf(pmf: dict[int, float], time: int) -> float:
    """P(X <= time)."""
    return total(p for t, p in pmf.items() if t <= time)


def robustness(pct: dict[int, float], deadline: int) -> float:
    """Eq. 1: the mass of a completion-time PMF at or before the deadline."""
    return min(1.0, cdf(pct, deadline))


def mean(pmf: dict[int, float]) -> float:
    """Expected value of the renormalised PMF; ``nan`` without mass."""
    mass = total(pmf.values())
    if mass <= MASS_TOLERANCE:
        return float("nan")
    return total(t * p for t, p in pmf.items()) / mass


def convolve(
    a: dict[int, float], a_width: int, b: dict[int, float], b_width: int
) -> dict[int, float]:
    """``a * b`` for two non-empty PMFs held in arrays of the given widths."""
    sparse, dense, dense_width = (b, a, a_width) if len(b) < len(a) else (a, b, b_width)
    if len(sparse) * dense_width < a_width * b_width:
        out: dict[int, float] = {}
        for k, pk in sparse.items():
            for i, pi in dense.items():
                out[k + i] = out.get(k + i, 0.0) + pk * pi
        return dict(sorted(out.items()))
    arrays = []
    for pmf, size in ((a, a_width), (b, b_width)):
        array, lo = np.zeros(size), min(pmf)
        for t, p in pmf.items():
            array[t - lo] = p
        arrays.append(array)
    probs = convolve_probs(arrays[0], len(a), arrays[1], len(b))
    lo = min(a) + min(b)
    return {lo + i: float(probs[i]) for i in np.flatnonzero(probs).tolist()}


def cap(pmf: dict[int, float], max_impulses: int = CAP) -> dict[int, float]:
    """At most ``max_impulses`` impulses: equal-width groups of bins, each
    group's mass at its mass-weighted mean time (Section IV)."""
    if len(pmf) <= max_impulses:
        return pmf
    lo, n = min(pmf), width(pmf)
    mass: dict[int, float] = {}
    moment: dict[int, float] = {}
    for t, p in pmf.items():
        group = (t - lo) * max_impulses // n
        mass[group] = mass.get(group, 0.0) + p
        moment[group] = moment.get(group, 0.0) + p * (t - lo)
    out: dict[int, float] = {}
    for group in sorted(mass):
        centre = lo + round(moment[group] / mass[group])
        out[centre] = out.get(centre, 0.0) + mass[group]
    return out


def step(
    pet: dict[int, float],
    prev: dict[int, float],
    deadline: int,
    policy: DroppingPolicy,
    max_impulses: int | None = None,
) -> tuple[dict[int, float], float, dict[int, float]]:
    """One task behind ``prev``: (availability, success probability, completion).

    Eq. 2 convolves the task's PET entry with the predecessor's PCT.  With
    dropping, the task starts only if the predecessor frees the machine
    before the deadline (Eq. 3), and the predecessor's mass at or after
    the deadline passes through (Eq. 4).  With eviction, the started
    branch's mass at or after the deadline collapses onto it (Eq. 5).  The
    success probability is Eq. 1 on the started branch before that
    collapse; the availability is the completion under the cap.  Mass at
    most ``MASS_TOLERANCE`` in a branch counts as none.
    """
    drops = policy is not DroppingPolicy.NONE
    started = {t: p for t, p in prev.items() if not drops or t < deadline}
    ran: dict[int, float] = {}
    if total(started.values()) > MASS_TOLERANCE and total(pet.values()) > MASS_TOLERANCE:
        started_width = min(deadline - min(prev), width(prev)) if drops else width(prev)
        ran = convolve(pet, width(pet), started, started_width)
    success = robustness(ran, deadline)
    if policy is DroppingPolicy.EVICT:
        tail = total(p for t, p in ran.items() if t >= deadline)
        if total(ran.values()) <= MASS_TOLERANCE:
            ran = {}
        else:
            ran = {t: p for t, p in ran.items() if t < deadline}
            if tail > MASS_TOLERANCE:
                ran[deadline] = tail
    dropped = {t: p for t, p in prev.items() if drops and t >= deadline}
    if total(dropped.values()) > MASS_TOLERANCE:
        for t, p in dropped.items():
            ran[t] = ran.get(t, 0.0) + p
    completion = {t: ran[t] for t in sorted(ran) if ran[t] != 0.0}
    availability = completion if max_impulses is None else cap(completion, max_impulses)
    return availability, success, completion


def success_probability(
    execution: dict[int, float], availability: dict[int, float], deadline: int
) -> float:
    """Eq. 1 on ``availability * execution`` without the convolution:
    ``P(free at t) * P(execution <= deadline - t)`` summed over the starts
    ``t`` before the deadline, ascending."""
    times, running, acc = list(execution), [], 0.0
    for p in execution.values():
        acc += p
        running.append(acc)
    acc = 0.0
    for t, p in availability.items():
        if t < deadline:
            below = bisect.bisect_right(times, deadline - t)
            acc += (running[below - 1] if below else 0.0) * p
    return min(1.0, acc)


def expected_completion(execution: dict[int, float], availability: dict[int, float]) -> float:
    """E[availability] + E[execution]: linearity of expectation."""
    return mean(availability) + mean(execution)
