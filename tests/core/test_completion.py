"""Tests of the completion-time model under task dropping (Eqs. 2-5).

Every regime goes through the one chain step, :func:`completion_step`;
``tests/core/test_reference_model.py`` pins it to the reference model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy, completion_step, queue_completion_pmfs
from repro.core.pmf import DiscretePMF


def pct_no_drop(pet, prev):
    """Eq. 2: the completion PMF when no mapped task can be dropped."""
    return completion_step(pet, prev, 0, DroppingPolicy.NONE).completion


def pct_pending_drop(pet, prev, deadline):
    """Eqs. 3-4: the completion PMF when pending tasks can be dropped."""
    return completion_step(pet, prev, deadline, DroppingPolicy.PENDING).completion


def pct_evict_drop(pet, prev, deadline):
    """Eq. 5: the completion PMF when even the executing task can be dropped."""
    return completion_step(pet, prev, deadline, DroppingPolicy.EVICT).completion


class TestNoDrop:
    def test_matches_plain_convolution(self, simple_pmf, fig2_prev_pct):
        result = pct_no_drop(simple_pmf, fig2_prev_pct)
        assert result.allclose(simple_pmf.convolve(fig2_prev_pct))

    def test_figure2_impulses(self, simple_pmf, fig2_prev_pct):
        result = pct_no_drop(simple_pmf, fig2_prev_pct)
        expected = {4: 0.125, 5: 0.3125, 6: 0.3125, 7: 0.1875, 8: 0.0625}
        for t, p in expected.items():
            assert result.probability_at(t) == pytest.approx(p)

    def test_idle_machine_shift(self, simple_pmf):
        start = DiscretePMF.point(100)
        result = pct_no_drop(simple_pmf, start)
        assert result.allclose(simple_pmf.shift(100))

    def test_mass_conserved(self, simple_pmf, fig2_prev_pct):
        assert pct_no_drop(simple_pmf, fig2_prev_pct).total_mass() == pytest.approx(1.0)


class TestPendingDrop:
    def test_no_truncation_when_deadline_far(self, simple_pmf, fig2_prev_pct):
        far = pct_pending_drop(simple_pmf, fig2_prev_pct, deadline=100)
        assert far.allclose(pct_no_drop(simple_pmf, fig2_prev_pct))

    def test_pass_through_when_predecessor_late(self, simple_pmf, fig2_prev_pct):
        # Deadline 4: the predecessor finishing at 4 or 5 means the task is
        # dropped while pending and the machine frees exactly then.
        result = pct_pending_drop(simple_pmf, fig2_prev_pct, deadline=4)
        assert result.probability_at(4) == pytest.approx(0.25 + 0.5 * 0.25)
        assert result.probability_at(5) == pytest.approx(0.25 + 0.25 * 0.5 + 0.25 * 0.5)
        assert result.total_mass() == pytest.approx(1.0)

    def test_all_mass_passes_through_when_deadline_before_predecessor(
        self, simple_pmf, fig2_prev_pct
    ):
        result = pct_pending_drop(simple_pmf, fig2_prev_pct, deadline=3)
        # The predecessor can never finish strictly before 3, so the task
        # never starts and the availability is exactly the predecessor PCT.
        assert result.allclose(fig2_prev_pct)

    def test_mass_conserved_for_any_deadline(self, simple_pmf, fig2_prev_pct):
        for deadline in range(2, 12):
            result = pct_pending_drop(simple_pmf, fig2_prev_pct, deadline)
            assert result.total_mass() == pytest.approx(1.0)

    def test_earlier_deadline_never_increases_support(self, simple_pmf, fig2_prev_pct):
        support_far = pct_pending_drop(simple_pmf, fig2_prev_pct, 100).support()[1]
        support_near = pct_pending_drop(simple_pmf, fig2_prev_pct, 5).support()[1]
        assert support_near <= support_far


class TestEvictDrop:
    def test_no_mass_beyond_deadline_when_task_started(self, simple_pmf, fig2_prev_pct):
        deadline = 6
        result = pct_evict_drop(simple_pmf, fig2_prev_pct, deadline)
        # Predecessor always finishes by 5 < 6, so the task always starts and
        # must leave the machine by its deadline.
        assert result.support()[1] <= deadline
        assert result.total_mass() == pytest.approx(1.0)

    def test_eviction_mass_collects_at_deadline(self, simple_pmf, fig2_prev_pct):
        deadline = 6
        no_drop = pct_no_drop(simple_pmf, fig2_prev_pct)
        result = pct_evict_drop(simple_pmf, fig2_prev_pct, deadline)
        late_mass = no_drop.mass_from(deadline)
        assert result.probability_at(deadline) == pytest.approx(late_mass)

    def test_predecessor_late_mass_passes_through(self, simple_pmf, fig2_prev_pct):
        # Deadline 4: predecessor mass at 4 and 5 is "task dropped while
        # pending" and must stay at the predecessor's completion times.
        result = pct_evict_drop(simple_pmf, fig2_prev_pct, deadline=4)
        assert result.probability_at(5) >= 0.25  # predecessor finishing at 5
        assert result.total_mass() == pytest.approx(1.0)

    def test_mass_conserved_for_any_deadline(self, simple_pmf, fig2_prev_pct):
        for deadline in range(2, 12):
            result = pct_evict_drop(simple_pmf, fig2_prev_pct, deadline)
            assert result.total_mass() == pytest.approx(1.0)

    def test_equivalent_to_pending_when_deadline_far(self, simple_pmf, fig2_prev_pct):
        far_evict = pct_evict_drop(simple_pmf, fig2_prev_pct, 100)
        far_pending = pct_pending_drop(simple_pmf, fig2_prev_pct, 100)
        assert far_evict.allclose(far_pending)


class TestStepAndChains:
    def test_step_rejects_unknown_policy(self, simple_pmf, fig2_prev_pct):
        with pytest.raises(ValueError):
            completion_step(simple_pmf, fig2_prev_pct, 6, policy="bogus")  # type: ignore[arg-type]

    @pytest.mark.parametrize("policy", list(DroppingPolicy))
    def test_success_probability_is_the_two_convolution_form(self, policy, rng):
        """One convolution, the same bits as the success probability the
        pruner used to take from a second convolution of the started branch."""

        def reference_success(pet, prev, deadline):
            if policy is DroppingPolicy.NONE:
                return float(min(1.0, pet.convolve(prev).cdf(deadline)))
            started = prev.truncate_before(deadline)
            if started.is_zero():
                return 0.0
            return float(min(1.0, pet.convolve(started).cdf(deadline)))

        pet = DiscretePMF.from_samples(rng.gamma(4.0, 20.0, size=500))
        prevs = [
            DiscretePMF.point(10),
            DiscretePMF.from_samples(rng.gamma(3.0, 30.0, size=300)).aggregate(24),
            DiscretePMF.from_samples(rng.gamma(2.0, 25.0, size=200)),  # dense-dense branch
            DiscretePMF(np.array([0.2, 0.0, 0.3]), offset=40),  # sub-normalised
        ]
        for prev in prevs:
            lo, hi = prev.min_time, prev.max_time + pet.max_time
            for deadline in (lo - 5, lo, lo + 1, (lo + hi) // 2, prev.max_time, hi, hi + 50):
                step = completion_step(pet, prev, deadline, policy)
                assert step.success_probability == reference_success(pet, prev, deadline)

    def test_queue_chain_lengths_and_monotone_means(self, simple_pmf):
        pets = [simple_pmf, simple_pmf, simple_pmf]
        deadlines = [50, 60, 70]
        chain = queue_completion_pmfs(
            pets, deadlines, start=DiscretePMF.point(0), policy=DroppingPolicy.NONE
        )
        assert len(chain) == 3
        means = [pmf.mean() for pmf in chain]
        assert means[0] < means[1] < means[2]
        assert means[2] == pytest.approx(3 * simple_pmf.mean())

    def test_queue_chain_with_eviction_bounded_by_deadlines(self, simple_pmf):
        pets = [simple_pmf] * 4
        deadlines = [3, 6, 9, 12]
        chain = queue_completion_pmfs(
            pets, deadlines, start=DiscretePMF.point(0), policy=DroppingPolicy.EVICT
        )
        for pmf, deadline in zip(chain, deadlines):
            assert pmf.support()[1] <= deadline
            assert pmf.total_mass() == pytest.approx(1.0)

    def test_queue_chain_applies_aggregation(self, rng):
        wide = DiscretePMF.from_samples(rng.gamma(2, 30, size=400))
        chain = queue_completion_pmfs(
            [wide] * 3,
            [10_000] * 3,
            start=DiscretePMF.point(0),
            policy=DroppingPolicy.NONE,
            max_impulses=16,
        )
        for pmf in chain:
            assert np.count_nonzero(pmf.probs) <= 16

    def test_queue_chain_length_mismatch(self, simple_pmf):
        with pytest.raises(ValueError):
            queue_completion_pmfs([simple_pmf], [1, 2], start=DiscretePMF.point(0))

    def test_dropping_improves_tasks_behind(self, simple_pmf):
        """Dropping a hopeless task lets the task behind it start earlier —
        the cascading benefit the paper's model quantifies (Section IV)."""
        long_task = DiscretePMF.from_impulses({20: 1.0})
        behind = simple_pmf
        start = DiscretePMF.point(0)
        # Without dropping, the task behind waits the full 20 units.
        chain_keep = queue_completion_pmfs(
            [long_task, behind], [5, 10], start=start, policy=DroppingPolicy.NONE
        )
        # With evict-capable dropping, the hopeless head leaves at its deadline.
        chain_evict = queue_completion_pmfs(
            [long_task, behind], [5, 10], start=start, policy=DroppingPolicy.EVICT
        )
        assert chain_evict[1].cdf(10) > chain_keep[1].cdf(10)
