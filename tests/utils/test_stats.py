"""Tests for summary statistics and RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sweep.spec import spawn_trial_seeds
from repro.utils.rng import make_generator
from repro.utils.stats import confidence_interval_95, summarize
from repro.utils.tables import format_table


class TestConfidenceInterval:
    def test_zero_for_single_sample(self):
        assert confidence_interval_95([5.0]) == 0.0

    def test_zero_for_constant_series(self):
        assert confidence_interval_95([3.0, 3.0, 3.0]) == 0.0

    def test_matches_t_interval(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0]
        half_width = confidence_interval_95(values)
        # known value: t(0.975, 4) * sem
        from scipy import stats as sp_stats

        expected = sp_stats.t.ppf(0.975, 4) * sp_stats.sem(values)
        assert half_width == pytest.approx(expected)

    def test_wider_with_more_spread(self):
        tight = confidence_interval_95([10, 10.1, 9.9, 10.05])
        wide = confidence_interval_95([5, 15, 2, 18])
        assert wide > tight


class TestMeanAndSummarize:
    def test_mean_and_ci(self):
        summary = summarize([2.0, 4.0, 6.0])
        assert summary.mean == pytest.approx(4.0)
        assert summary.ci95 > 0

    def test_empty_series(self):
        summary = summarize([])
        assert np.isnan(summary.mean)
        assert summary.ci95 == 0.0

    def test_summarize_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.n == 4
        assert summary.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.n == 0
        assert np.isnan(summary.mean)

    def test_summary_as_dict(self):
        payload = summarize([1.0, 2.0]).as_dict()
        assert set(payload) == {"mean", "ci95", "std", "min", "max", "n"}


class TestRng:
    def test_make_generator_from_seed(self):
        a = make_generator(5)
        b = make_generator(5)
        assert a.integers(0, 100, 10).tolist() == b.integers(0, 100, 10).tolist()

    def test_make_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert make_generator(rng) is rng

    def test_spawn_trial_seeds_independent_and_reproducible(self):
        def generators(seed: int, trials: int) -> list[np.random.Generator]:
            return [np.random.default_rng(child) for child in spawn_trial_seeds(seed, trials)]

        first = generators(7, 3)
        second = generators(7, 3)
        assert len(first) == 3
        for a, b in zip(first, second):
            assert a.integers(0, 1000, 5).tolist() == b.integers(0, 1000, 5).tolist()
        draws = [g.integers(0, 1_000_000) for g in generators(7, 3)]
        assert len(set(int(d) for d in draws)) == 3

    def test_more_trials_keep_the_earlier_trials_seeds(self):
        # Growing a sweep's trial count must not change the trials already run.
        short = spawn_trial_seeds(7, 3)
        longer = spawn_trial_seeds(7, 5)
        assert len(longer) == 5
        for a, b in zip(short, longer):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["name", "value"], [["a", 1.234], ["bb", 5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in lines[2]

    def test_column_alignment(self):
        text = format_table(["x"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        assert len(lines[2]) == len(lines[3])
