"""Tests of robustness / success-probability evaluation (Eq. 1).

Eq. 1 on a completion-time PMF is the reference model's ``robustness``;
the engine reads a task's success probability off its chain step
(:func:`completion_step`), and scores candidate pairs without the
convolution (``packed_success_probability``, pinned to the model's scorer
in ``tests/core/test_reference_model.py``).
"""

from __future__ import annotations

import pytest

from repro.core.completion import DroppingPolicy, completion_step
from repro.core.pmf import DiscretePMF

from reference import pmf as model


def success_probability(pet, prev, deadline, policy):
    return completion_step(pet, prev, deadline, policy).success_probability


def queue_success_probabilities(pets, deadlines, *, start, policy):
    """Every queued task's success probability, head first, down one chain."""
    probs, prev = [], start
    for pet, deadline in zip(pets, deadlines):
        step = completion_step(pet, prev, deadline, policy)
        probs.append(step.success_probability)
        prev = step.availability
    return probs


class TestRobustnessOfPct:
    def test_matches_cdf(self, simple_pmf):
        for deadline in range(0, 5):
            assert model.robustness(model.of(simple_pmf), deadline) == pytest.approx(
                simple_pmf.cdf(deadline)
            )

    def test_clamped_to_one(self):
        assert model.robustness({1: 0.5, 2: 0.5}, 10) == pytest.approx(1.0)

    def test_paper_figure3_values(self):
        """The middle PMFs of Figure 3 all have robustness 0.75 at deadline 3."""
        no_skew = {2: 0.25, 3: 0.5, 4: 0.25}
        left_skew = {1: 0.15, 2: 0.25, 3: 0.35, 4: 0.25}
        assert model.robustness(no_skew, 3) == pytest.approx(0.75)
        assert model.robustness(left_skew, 3) == pytest.approx(0.75)


class TestSuccessProbability:
    def test_no_drop_uses_full_convolution(self, simple_pmf, fig2_prev_pct):
        expected = simple_pmf.convolve(fig2_prev_pct).cdf(7)
        assert success_probability(
            simple_pmf, fig2_prev_pct, 7, DroppingPolicy.NONE
        ) == pytest.approx(expected)

    def test_drop_policies_exclude_dropped_branch(self, simple_pmf, fig2_prev_pct):
        # Deadline 5: the task succeeds if the predecessor frees the machine
        # at 3 (prob 0.5) and execution takes at most 2 (prob 0.75), or at 4
        # (prob 0.25) and execution takes 1 (prob 0.25).  The predecessor
        # finishing at 5 means the task is dropped while pending.
        expected = 0.5 * 0.75 + 0.25 * 0.25
        for policy in (DroppingPolicy.PENDING, DroppingPolicy.EVICT):
            assert success_probability(
                simple_pmf, fig2_prev_pct, 5, policy
            ) == pytest.approx(expected)

    def test_zero_when_predecessor_always_late(self, simple_pmf, fig2_prev_pct):
        assert success_probability(simple_pmf, fig2_prev_pct, 3, DroppingPolicy.EVICT) == 0.0

    def test_evict_pct_would_overstate_success(self, simple_pmf, fig2_prev_pct):
        """The aggregated impulse at the deadline is eviction, not success —
        the step's success probability must not count it."""
        deadline = 5
        step = completion_step(simple_pmf, fig2_prev_pct, deadline, DroppingPolicy.EVICT)
        assert step.completion.cdf(deadline) > step.success_probability

    def test_agrees_with_the_scorer_without_convolution(self, simple_pmf, fig2_prev_pct):
        for deadline in range(2, 12):
            slow = success_probability(
                simple_pmf, fig2_prev_pct, deadline, DroppingPolicy.PENDING
            )
            fast = model.success_probability(model.of(simple_pmf), model.of(fig2_prev_pct), deadline)
            assert fast == pytest.approx(slow)

    def test_monotone_in_deadline(self, simple_pmf, fig2_prev_pct):
        values = [
            success_probability(simple_pmf, fig2_prev_pct, d, DroppingPolicy.EVICT)
            for d in range(3, 12)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestQueueSuccessProbabilities:
    def test_head_task_unaffected_by_queue_behind(self, simple_pmf):
        probs = queue_success_probabilities(
            [simple_pmf, simple_pmf],
            [5, 20],
            start=DiscretePMF.point(0),
            policy=DroppingPolicy.EVICT,
        )
        assert probs[0] == pytest.approx(simple_pmf.cdf(5))

    def test_deeper_tasks_have_lower_probability_for_tight_deadlines(self, simple_pmf):
        probs = queue_success_probabilities(
            [simple_pmf] * 4,
            [6] * 4,
            start=DiscretePMF.point(0),
            policy=DroppingPolicy.EVICT,
        )
        assert probs[0] == pytest.approx(1.0)
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_probabilities_lie_in_unit_interval(self, simple_pmf):
        probs = queue_success_probabilities(
            [simple_pmf] * 5,
            [4, 7, 9, 11, 12],
            start=DiscretePMF.point(2),
            policy=DroppingPolicy.EVICT,
        )
        assert all(0.0 <= p <= 1.0 for p in probs)
