"""Tests for the EWMA oversubscription detector and Schmitt trigger (Eq. 8)."""

from __future__ import annotations

import pytest

from repro.pruning.oversubscription import (
    ExponentialMovingAverage,
    OversubscriptionDetector,
    SchmittTrigger,
)


class TestExponentialMovingAverage:
    def test_update_formula(self):
        ewma = ExponentialMovingAverage(weight=0.9)
        assert ewma.update(10) == pytest.approx(9.0)
        assert ewma.update(0) == pytest.approx(0.9)

    def test_weight_one_tracks_latest(self):
        ewma = ExponentialMovingAverage(weight=1.0)
        ewma.update(5)
        assert ewma.value == 5
        ewma.update(2)
        assert ewma.value == 2

    def test_low_weight_remembers_history(self):
        slow = ExponentialMovingAverage(weight=0.1)
        fast = ExponentialMovingAverage(weight=0.9)
        for misses in (10, 0, 0, 0):
            slow.update(misses)
            fast.update(misses)
        assert slow.value > fast.value

    def test_reset(self):
        ewma = ExponentialMovingAverage(weight=0.5)
        ewma.update(8)
        ewma.reset()
        assert ewma.value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialMovingAverage(weight=0.0)
        with pytest.raises(ValueError):
            ExponentialMovingAverage(weight=1.5)
        with pytest.raises(ValueError):
            ExponentialMovingAverage(weight=0.5).update(-1)


class TestSchmittTrigger:
    def test_turns_on_at_on_level(self):
        trigger = SchmittTrigger(on_level=2.0, separation=0.2)
        assert not trigger.update(1.9)
        assert trigger.update(2.0)

    def test_stays_on_until_off_level(self):
        trigger = SchmittTrigger(on_level=2.0, separation=0.2)
        trigger.update(2.5)
        assert trigger.update(1.7)  # above off level 1.6 -> still on
        assert not trigger.update(1.6)  # at off level -> off

    def test_paper_example_20_percent_separation(self):
        """'if oversubscription level two or higher signals starting dropping,
        oversubscription value 1.6 or lower signals stopping it.'"""
        trigger = SchmittTrigger(on_level=2.0, separation=0.2)
        assert trigger.off_level == pytest.approx(1.6)

    def test_zero_separation_degenerates_to_single_threshold(self):
        trigger = SchmittTrigger(on_level=1.0, separation=0.0)
        assert trigger.update(1.0)
        assert not trigger.update(0.999)
        assert trigger.update(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchmittTrigger(on_level=0.0)
        with pytest.raises(ValueError):
            SchmittTrigger(on_level=1.0, separation=1.0)

    def test_reset(self):
        trigger = SchmittTrigger(on_level=1.0, initially_on=True)
        trigger.reset()
        # 0.9 lies between the off (0.8) and on (1.0) levels: the trigger keeps its state.
        assert not trigger.update(0.9)


class TestOversubscriptionDetector:
    def test_engages_after_sustained_misses(self):
        detector = OversubscriptionDetector(ewma_weight=0.9, toggle_level=1.0)
        assert not detector.observe(1)  # EWMA 0.9, inside the band: it starts off
        assert detector.observe(3)

    def test_single_spike_with_low_weight_does_not_engage(self):
        detector = OversubscriptionDetector(ewma_weight=0.1, toggle_level=1.0)
        assert not detector.observe(5)  # EWMA = 0.5 < 1.0

    def test_disengages_with_hysteresis(self):
        detector = OversubscriptionDetector(ewma_weight=0.9, toggle_level=1.0, schmitt_separation=0.2)
        engaged = detector.observe(5)
        assert engaged
        # Level decays: stays on until it reaches 0.8 or lower.
        while detector.level > 0.8:
            assert engaged
            engaged = detector.observe(0)
        assert not engaged

    def test_level_property_tracks_ewma(self):
        detector = OversubscriptionDetector(ewma_weight=0.5)
        detector.observe(4)
        assert detector.level == pytest.approx(2.0)

    def test_reset(self):
        detector = OversubscriptionDetector()
        detector.observe(10)
        detector.reset()
        assert detector.level == 0.0
        # An EWMA of 0.9 lies inside the hysteresis band (0.8, 1.0): an
        # engaged toggle would stay on.
        assert not detector.observe(1)
