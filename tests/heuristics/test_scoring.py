"""Tests for phase-1 scoring of one candidate pair and the MMU urgency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import CDFTable, pack_impulses, packed_success_probability
from repro.core.completion import DroppingPolicy, completion_step
from repro.core.pmf import DiscretePMF
from repro.heuristics.baselines import urgency


def score(exec_pmf: DiscretePMF, availability: DiscretePMF, deadline: int) -> float:
    """The scoring kernel on one (task, machine) pair."""
    packed = pack_impulses([availability])
    grid = packed_success_probability(
        *packed, CDFTable.from_pmf(exec_pmf), np.array([0]), np.array([deadline])
    )
    return float(grid[0, 0])


class TestPairScore:
    def test_matches_the_chain_step(self, simple_pmf, fig2_prev_pct):
        for deadline in range(2, 12):
            exact = completion_step(simple_pmf, fig2_prev_pct, deadline, DroppingPolicy.PENDING)
            assert score(simple_pmf, fig2_prev_pct, deadline) == pytest.approx(
                exact.success_probability
            )

    def test_idle_machine(self, simple_pmf):
        availability = DiscretePMF.point(10)
        assert score(simple_pmf, availability, 13) == pytest.approx(1.0)
        assert score(simple_pmf, availability, 12) == pytest.approx(0.75)
        assert score(simple_pmf, availability, 10) == 0.0

    def test_zero_when_start_at_or_after_deadline(self, simple_pmf):
        availability = DiscretePMF.point(20)
        assert score(simple_pmf, availability, 20) == 0.0
        assert score(simple_pmf, availability, 15) == 0.0

    def test_zero_mass_availability(self, simple_pmf):
        assert score(simple_pmf, DiscretePMF.zero(), 100) == 0.0

    def test_monotone_in_deadline(self, simple_pmf, fig2_prev_pct):
        values = [score(simple_pmf, fig2_prev_pct, d) for d in range(2, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounded_by_one(self, simple_pmf, fig2_prev_pct):
        assert score(simple_pmf, fig2_prev_pct, 1000) <= 1.0


class TestUrgency:
    def test_closer_deadline_is_more_urgent(self):
        assert urgency(100, 50) < urgency(60, 50)

    def test_formula(self):
        assert urgency(60, 50) == pytest.approx(0.1)

    def test_impossible_task_is_maximally_urgent(self):
        assert urgency(50, 50) == float("inf")
        assert urgency(40, 50) == float("inf")

    def test_elementwise_on_arrays(self):
        got = urgency(np.array([60, 50, 70]), np.array([50.0, 50.0, 60.0]))
        assert got.tolist() == [pytest.approx(0.1), float("inf"), pytest.approx(0.1)]
