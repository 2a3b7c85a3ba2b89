"""Tests for dropping/deferring thresholds and the Eq. 7 adjustment."""

from __future__ import annotations

import pytest

from repro.core.pmf import DiscretePMF
from repro.pruning.thresholds import PruningThresholds, skewness_position_adjustment

POSITIVE_SKEW = DiscretePMF.from_impulses({2: 0.6, 3: 0.2, 8: 0.2})
NEGATIVE_SKEW = DiscretePMF.from_impulses({2: 0.2, 7: 0.2, 8: 0.6})
SYMMETRIC = DiscretePMF.from_impulses({2: 0.25, 3: 0.5, 4: 0.25})


class TestSkewnessPositionAdjustment:
    def test_sign_follows_negated_skewness(self):
        assert skewness_position_adjustment(+1.0, 0, rho=0.1) < 0
        assert skewness_position_adjustment(-1.0, 0, rho=0.1) > 0
        assert skewness_position_adjustment(0.0, 0, rho=0.1) == 0.0

    def test_magnitude_decays_with_queue_position(self):
        head = abs(skewness_position_adjustment(1.0, 0, rho=0.1))
        deep = abs(skewness_position_adjustment(1.0, 5, rho=0.1))
        assert head > deep
        assert head == pytest.approx(0.1)
        assert deep == pytest.approx(0.1 / 6)

    def test_rho_scales_linearly(self):
        small = skewness_position_adjustment(-1.0, 1, rho=0.05)
        large = skewness_position_adjustment(-1.0, 1, rho=0.10)
        assert large == pytest.approx(2 * small)

    def test_validation(self):
        with pytest.raises(ValueError):
            skewness_position_adjustment(0.5, -1)
        with pytest.raises(ValueError):
            skewness_position_adjustment(1.5, 0)
        with pytest.raises(ValueError):
            skewness_position_adjustment(0.5, 0, rho=-0.1)


class TestAdjustedDroppingThreshold:
    """Eq. 7 through the pruner's own entry point, ``dropping_threshold_for``."""

    @staticmethod
    def adjusted(base: float, pmf: DiscretePMF, queue_position: int, *, rho: float) -> float:
        thresholds = PruningThresholds(dropping=base, deferring=max(base, 0.9), rho=rho)
        return thresholds.dropping_threshold_for(pmf, queue_position)

    def test_positive_skew_lowers_threshold(self):
        assert self.adjusted(0.5, POSITIVE_SKEW, 0, rho=0.1) < 0.5

    def test_negative_skew_raises_threshold(self):
        assert self.adjusted(0.5, NEGATIVE_SKEW, 0, rho=0.1) > 0.5

    def test_symmetric_pmf_leaves_threshold(self):
        assert self.adjusted(0.5, SYMMETRIC, 0, rho=0.1) == pytest.approx(0.5)

    def test_clipped_to_unit_interval(self):
        assert 0.0 <= self.adjusted(0.02, POSITIVE_SKEW, 0, rho=1.0) <= 1.0
        assert 0.0 <= self.adjusted(0.98, NEGATIVE_SKEW, 0, rho=1.0) <= 1.0


class TestPruningThresholds:
    def test_paper_defaults(self):
        thresholds = PruningThresholds()
        assert thresholds.dropping == pytest.approx(0.50)
        assert thresholds.deferring == pytest.approx(0.90)

    def test_defer_must_not_be_below_drop(self):
        with pytest.raises(ValueError):
            PruningThresholds(dropping=0.6, deferring=0.5)

    def test_equal_thresholds_allowed(self):
        thresholds = PruningThresholds(dropping=0.25, deferring=0.25)
        assert thresholds.dropping == thresholds.deferring == pytest.approx(0.25)

    def test_unit_interval_endpoints_allowed(self):
        thresholds = PruningThresholds(dropping=0.0, deferring=1.0)
        assert (thresholds.dropping, thresholds.deferring) == (0.0, 1.0)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            PruningThresholds(dropping=-0.1)
        with pytest.raises(ValueError):
            PruningThresholds(dropping=0.2, deferring=1.2)

    def test_should_drop_inclusive(self):
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        assert thresholds.should_drop(0.5, 0.5)
        assert not thresholds.should_drop(0.500001, 0.5)

    def test_should_defer_strict(self):
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        assert thresholds.should_defer(0.899, 0.9)
        assert not thresholds.should_defer(0.9, 0.9)

    def test_sufferage_relaxes_thresholds(self):
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9)
        assert thresholds.deferring_threshold_for(sufferage=0.2) == pytest.approx(0.7)
        assert thresholds.dropping_threshold_for(sufferage=0.2) == pytest.approx(0.3)

    def test_sufferage_cannot_go_negative(self):
        thresholds = PruningThresholds(dropping=0.1, deferring=0.9)
        assert thresholds.dropping_threshold_for(sufferage=0.9) == 0.0

    def test_dynamic_adjustment_applied_when_pmf_given(self):
        thresholds = PruningThresholds(dropping=0.5, deferring=0.9, rho=0.1)
        assert thresholds.dropping_threshold_for(NEGATIVE_SKEW, queue_position=0) > 0.5
        assert thresholds.dropping_threshold_for(POSITIVE_SKEW, queue_position=0) < 0.5

    def test_dynamic_adjustment_disabled(self):
        thresholds = PruningThresholds(dynamic_per_task=False, rho=0.1)
        assert thresholds.dropping_threshold_for(NEGATIVE_SKEW, queue_position=0) == pytest.approx(
            thresholds.dropping
        )
