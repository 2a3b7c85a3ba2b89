"""Property-based tests for the completion-time model (Eqs. 2-5).

The invariants checked here hold for *any* execution-time PMF, predecessor
completion-time PMF and deadline:

* all three regimes conserve probability mass;
* the evict regime never leaves "task ran" mass after the deadline;
* the no-drop completion stochastically dominates the drop-aware ones before
  the deadline (dropping can only free the machine earlier);
* the success probability is the same under pending and evict dropping and
  never exceeds the no-drop success probability... (it equals it below, since
  a task that would be dropped while pending could never have met its
  deadline anyway).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import DroppingPolicy, completion_step
from repro.core.pmf import DiscretePMF


def pct_no_drop(pet, prev):
    return completion_step(pet, prev, 0, DroppingPolicy.NONE).completion


def pct_pending_drop(pet, prev, deadline):
    return completion_step(pet, prev, deadline, DroppingPolicy.PENDING).completion


def pct_evict_drop(pet, prev, deadline):
    return completion_step(pet, prev, deadline, DroppingPolicy.EVICT).completion


def success_probability(pet, prev, deadline, policy):
    return completion_step(pet, prev, deadline, policy).success_probability


@st.composite
def pmfs(draw, min_time: int = 1, max_time: int = 30, max_impulses: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_impulses))
    times = draw(
        st.lists(
            st.integers(min_value=min_time, max_value=max_time),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n))
    total = sum(weights)
    return DiscretePMF.from_impulses({t: w / total for t, w in zip(times, weights)})


deadlines = st.integers(min_value=1, max_value=70)


@given(pmfs(), pmfs(), deadlines)
@settings(max_examples=80, deadline=None)
def test_all_regimes_conserve_mass(pet, prev, deadline):
    for result in (
        pct_no_drop(pet, prev),
        pct_pending_drop(pet, prev, deadline),
        pct_evict_drop(pet, prev, deadline),
    ):
        np.testing.assert_allclose(result.total_mass(), 1.0, rtol=1e-9)


@given(pmfs(), pmfs(), deadlines)
@settings(max_examples=80, deadline=None)
def test_evict_regime_bounds_ran_branch_by_deadline(pet, prev, deadline):
    result = pct_evict_drop(pet, prev, deadline)
    # Any mass after the deadline can only be predecessor pass-through (the
    # task was dropped while pending); it is bounded by the predecessor's
    # mass at or after the deadline.
    late_mass = result.mass_from(deadline + 1)
    assert late_mass <= prev.mass_from(deadline) + 1e-9


@given(pmfs(), pmfs(), deadlines)
@settings(max_examples=80, deadline=None)
def test_dropping_never_delays_machine_availability(pet, prev, deadline):
    """The drop-aware availability CDF dominates the no-drop CDF: dropping a
    task can only make the machine free earlier, never later."""
    no_drop = pct_no_drop(pet, prev)
    pending = pct_pending_drop(pet, prev, deadline)
    evict = pct_evict_drop(pet, prev, deadline)
    lo = min(no_drop.support()[0], pending.support()[0], evict.support()[0])
    hi = max(no_drop.support()[1], pending.support()[1], evict.support()[1])
    for t in range(lo, hi + 1):
        assert pending.cdf(t) >= no_drop.cdf(t) - 1e-9
        assert evict.cdf(t) >= pending.cdf(t) - 1e-9


@given(pmfs(), pmfs(), deadlines)
@settings(max_examples=80, deadline=None)
def test_success_probability_identical_under_pending_and_evict(pet, prev, deadline):
    pending = success_probability(pet, prev, deadline, DroppingPolicy.PENDING)
    evict = success_probability(pet, prev, deadline, DroppingPolicy.EVICT)
    np.testing.assert_allclose(pending, evict, rtol=1e-12, atol=1e-12)


@given(pmfs(), pmfs(), deadlines)
@settings(max_examples=80, deadline=None)
def test_success_probability_matches_no_drop_convolution_truncated(pet, prev, deadline):
    """A task meets its deadline iff the plain convolution lands at or before
    the deadline AND the predecessor freed the machine before the deadline.
    Since execution takes at least one time unit, the two events coincide, so
    the drop-aware success probability equals Eq. 1 on the plain convolution."""
    with_drop = success_probability(pet, prev, deadline, DroppingPolicy.PENDING)
    plain = success_probability(pet, prev, deadline, DroppingPolicy.NONE)
    np.testing.assert_allclose(with_drop, plain, rtol=1e-12, atol=1e-12)


@given(pmfs(), pmfs(), deadlines)
@settings(max_examples=60, deadline=None)
def test_success_probability_bounded_by_unconditional_cdf(pet, prev, deadline):
    prob = success_probability(pet, prev, deadline, DroppingPolicy.EVICT)
    assert 0.0 <= prob <= 1.0
    assert prob <= pet.convolve(prev).cdf(deadline) + 1e-9
