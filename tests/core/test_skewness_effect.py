"""Reproduction of the paper's Figure 3: the skewness of a task's
completion-time PMF changes the robustness of the task queued behind it,
even when the task's own robustness is identical (0.75 in all three cases).
"""

from __future__ import annotations

import pytest

from repro.core.completion import DroppingPolicy, completion_step
from repro.core.pmf import DiscretePMF


def success_probability(pet, prev, deadline, policy=DroppingPolicy.EVICT):
    return completion_step(pet, prev, deadline, policy).success_probability


@pytest.fixture
def next_task_pet() -> DiscretePMF:
    """Execution-time PMF of task i+1 in Figure 3 (left-most PMFs)."""
    return DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25})


# Completion-time PMFs of task i (the middle PMFs of Figure 3).  All three
# have robustness 0.75 against task i's deadline of 3 but different skews.
NO_SKEW = DiscretePMF.from_impulses({2: 0.25, 3: 0.50, 4: 0.25})
LEFT_SKEW = DiscretePMF.from_impulses({1: 0.05, 2: 0.10, 3: 0.60, 4: 0.25})
RIGHT_SKEW = DiscretePMF.from_impulses({2: 0.50, 3: 0.25, 4: 0.25})

DEADLINE_I = 3
DEADLINE_NEXT = 5


def test_all_three_predecessors_have_equal_robustness():
    for pct in (NO_SKEW, LEFT_SKEW, RIGHT_SKEW):
        assert pct.cdf(DEADLINE_I) == pytest.approx(0.75)


def test_skewness_signs_match_figure3():
    assert NO_SKEW.skewness() == pytest.approx(0.0, abs=1e-9)
    assert LEFT_SKEW.skewness() < 0.0
    assert RIGHT_SKEW.skewness() > 0.0


def test_positive_skew_helps_the_next_task(next_task_pet):
    """Figure 3(c) vs 3(b): the next task (deadline 5) is more robust behind
    a positively skewed predecessor than behind a negatively skewed one."""
    behind_right = success_probability(next_task_pet, RIGHT_SKEW, DEADLINE_NEXT, DroppingPolicy.NONE)
    behind_none = success_probability(next_task_pet, NO_SKEW, DEADLINE_NEXT, DroppingPolicy.NONE)
    behind_left = success_probability(next_task_pet, LEFT_SKEW, DEADLINE_NEXT, DroppingPolicy.NONE)
    assert behind_right > behind_none > behind_left


def test_figure3_quantitative_values(next_task_pet):
    """The paper reports 0.6875 (no skew), 0.6625 (left skew), 0.75 (right skew)."""
    assert success_probability(
        next_task_pet, NO_SKEW, DEADLINE_NEXT, DroppingPolicy.NONE
    ) == pytest.approx(0.6875)
    assert success_probability(
        next_task_pet, LEFT_SKEW, DEADLINE_NEXT, DroppingPolicy.NONE
    ) == pytest.approx(0.6625)
    assert success_probability(
        next_task_pet, RIGHT_SKEW, DEADLINE_NEXT, DroppingPolicy.NONE
    ) == pytest.approx(0.75)


def test_dropping_threshold_adjustment_favours_right_skew():
    """Eq. 7: a positively skewed task gets a lower (more lenient) dropping
    threshold than a negatively skewed one at the same queue position."""
    from repro.pruning.thresholds import PruningThresholds

    base = 0.5
    thresholds = PruningThresholds(dropping=base, rho=0.1)
    lenient = thresholds.dropping_threshold_for(RIGHT_SKEW, queue_position=0)
    strict = thresholds.dropping_threshold_for(LEFT_SKEW, queue_position=0)
    assert lenient < base < strict
