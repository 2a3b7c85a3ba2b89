"""Unit tests for the discrete PMF algebra."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.core.pmf import MASS_TOLERANCE, DiscretePMF


class TestConstruction:
    def test_point_mass(self):
        pmf = DiscretePMF.point(7)
        assert pmf.probability_at(7) == 1.0
        assert pmf.total_mass() == pytest.approx(1.0)
        assert pmf.support() == (7, 7)

    def test_point_mass_with_partial_mass(self):
        pmf = DiscretePMF.point(3, mass=0.25)
        assert pmf.total_mass() == pytest.approx(0.25)

    def test_zero_pmf(self):
        pmf = DiscretePMF.zero()
        assert pmf.is_zero()
        assert pmf.total_mass() == 0.0

    def test_from_impulses_basic(self):
        pmf = DiscretePMF.from_impulses({2: 0.5, 5: 0.5})
        assert pmf.offset == 2
        assert pmf.probability_at(2) == 0.5
        assert pmf.probability_at(3) == 0.0
        assert pmf.probability_at(5) == 0.5

    def test_from_impulses_duplicate_times_accumulate(self):
        pmf = DiscretePMF.from_impulses([(4, 0.25), (4, 0.25), (6, 0.5)])
        assert pmf.probability_at(4) == pytest.approx(0.5)

    def test_from_impulses_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF.from_impulses({})

    def test_from_impulses_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF.from_impulses({1: -0.5, 2: 1.5})

    def test_from_samples_histogram(self):
        samples = [5, 5, 5, 7, 7, 9]
        pmf = DiscretePMF.from_samples(samples)
        assert pmf.probability_at(5) == pytest.approx(0.5)
        assert pmf.probability_at(7) == pytest.approx(1 / 3)
        assert pmf.probability_at(9) == pytest.approx(1 / 6)
        assert pmf.is_normalised()

    def test_from_samples_respects_min_time(self):
        pmf = DiscretePMF.from_samples([0.1, 0.2, 0.4])
        assert pmf.support()[0] >= 1

    def test_from_samples_bin_width(self):
        pmf = DiscretePMF.from_samples([10, 11, 12, 13, 14], bin_width=5)
        # all samples collapse onto the 10 and 15 grid points
        assert set(pmf.to_impulses()) <= {10, 15}
        assert pmf.is_normalised()

    def test_from_samples_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF.from_samples([])

    @pytest.mark.parametrize("shape", [1.0, 1.37, 4.0, 9.5, 13.25, 20.0])
    def test_standard_gamma_times_scale_is_the_scipy_gamma_draw(self, shape):
        """The PET builders' primitive equals the frozen scipy distribution
        they used to sample (Section VI-A: 500 gamma draws per entry), value
        for value, and leaves the generator in the same state."""
        scale = 80.0 / shape
        for seed in range(5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = ours.standard_gamma(shape, size=500) * scale
            reference = sp_stats.gamma(a=shape, scale=scale).rvs(size=500, random_state=theirs)
            assert np.array_equal(drawn, reference)
            assert ours.random() == theirs.random()

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF(np.array([0.5, -0.1, 0.6]), offset=0)

    def test_super_unit_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF(np.array([0.9, 0.9]), offset=0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF(np.array([0.5, np.nan]), offset=0)

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            DiscretePMF(np.ones((2, 2)) * 0.1, offset=0)


class TestQueries:
    def test_cdf_interior_and_boundaries(self, simple_pmf):
        assert simple_pmf.cdf(0) == 0.0
        assert simple_pmf.cdf(1) == pytest.approx(0.25)
        assert simple_pmf.cdf(2) == pytest.approx(0.75)
        assert simple_pmf.cdf(3) == pytest.approx(1.0)
        assert simple_pmf.cdf(100) == pytest.approx(1.0)

    def test_sf_complements_cdf(self, simple_pmf):
        for t in range(0, 5):
            assert simple_pmf.sf(t) == pytest.approx(simple_pmf.total_mass() - simple_pmf.cdf(t))

    def test_mass_before_is_strict(self, simple_pmf):
        assert simple_pmf.mass_before(2) == pytest.approx(0.25)
        assert simple_pmf.cdf(2) == pytest.approx(0.75)

    def test_mass_from(self, simple_pmf):
        assert simple_pmf.mass_from(2) == pytest.approx(0.75)
        assert simple_pmf.mass_from(4) == pytest.approx(0.0)

    def test_support_ignores_zero_padding(self):
        pmf = DiscretePMF(np.array([0.0, 0.5, 0.0, 0.5, 0.0]), offset=10)
        assert pmf.support() == (11, 13)

    def test_times_alignment(self):
        pmf = DiscretePMF(np.array([0.5, 0.5]), offset=4)
        assert pmf.times.tolist() == [4, 5]

    def test_probability_at_outside_range(self, simple_pmf):
        assert simple_pmf.probability_at(-1) == 0.0
        assert simple_pmf.probability_at(99) == 0.0

    def test_is_normalised(self, simple_pmf):
        assert simple_pmf.is_normalised()
        assert not simple_pmf.scale_mass(0.5).is_normalised()


class TestMoments:
    def test_mean_of_symmetric_pmf(self, simple_pmf):
        assert simple_pmf.mean() == pytest.approx(2.0)

    def test_mean_of_point(self):
        assert DiscretePMF.point(9).mean() == pytest.approx(9.0)

    def test_variance_and_std(self, simple_pmf):
        assert simple_pmf.variance() == pytest.approx(0.5)
        assert simple_pmf.std() == pytest.approx(np.sqrt(0.5))

    def test_zero_mass_moments_are_nan(self):
        z = DiscretePMF.zero()
        assert np.isnan(z.mean())
        assert np.isnan(z.variance())

    def test_skewness_zero_for_symmetric(self, simple_pmf):
        assert simple_pmf.skewness() == pytest.approx(0.0, abs=1e-12)

    def test_skewness_sign_right_tail(self):
        right = DiscretePMF.from_impulses({1: 0.6, 2: 0.25, 10: 0.15})
        assert right.skewness() > 0

    def test_skewness_sign_left_tail(self):
        left = DiscretePMF.from_impulses({1: 0.15, 9: 0.25, 10: 0.6})
        assert left.skewness() < 0

    def test_bounded_skewness_clipped(self):
        highly_skewed = DiscretePMF.from_impulses({1: 0.95, 100: 0.05})
        assert highly_skewed.skewness() > 1.0
        assert highly_skewed.bounded_skewness() == pytest.approx(1.0)

    def test_skewness_of_degenerate_is_zero(self):
        assert DiscretePMF.point(5).skewness() == 0.0
        assert DiscretePMF.zero().skewness() == 0.0

    def test_expected_value_alias(self, simple_pmf):
        assert simple_pmf.expected_value() == simple_pmf.mean()

    def test_mean_is_cached_and_consistent(self, simple_pmf):
        first = simple_pmf.mean()
        second = simple_pmf.mean()
        assert first == second


class TestTransformations:
    def test_shift_moves_support_and_preserves_shape(self, simple_pmf):
        shifted = simple_pmf.shift(10)
        assert shifted.support() == (11, 13)
        assert shifted.mean() == pytest.approx(simple_pmf.mean() + 10)
        assert shifted.total_mass() == pytest.approx(1.0)

    def test_shift_negative(self, simple_pmf):
        assert simple_pmf.shift(-1).support() == (0, 2)

    def test_normalise_restores_unit_mass(self, simple_pmf):
        half = simple_pmf.scale_mass(0.5)
        assert half.normalise().total_mass() == pytest.approx(1.0)

    def test_normalise_zero_mass_raises(self):
        with pytest.raises(ValueError):
            DiscretePMF.zero().normalise()

    def test_scale_mass_bounds(self, simple_pmf):
        with pytest.raises(ValueError):
            simple_pmf.scale_mass(1.5)
        with pytest.raises(ValueError):
            simple_pmf.scale_mass(-0.1)

    def test_compact_strips_zeros(self):
        pmf = DiscretePMF(np.array([0.0, 0.0, 0.4, 0.6, 0.0]), offset=5)
        compacted = pmf.compact()
        assert compacted.offset == 7
        assert compacted.probs.size == 2

    def test_compact_of_zero_pmf(self):
        assert DiscretePMF.zero().compact().is_zero()

    def test_convolve_matches_numpy(self, simple_pmf, fig2_prev_pct):
        ours = simple_pmf.convolve(fig2_prev_pct)
        dense = np.convolve(simple_pmf.probs, fig2_prev_pct.probs)
        assert np.allclose(ours.probs, dense)
        assert ours.offset == simple_pmf.offset + fig2_prev_pct.offset

    def test_convolve_paper_figure2_example(self, simple_pmf, fig2_prev_pct):
        """The exact impulses shown in Figure 2 of the paper."""
        result = simple_pmf.convolve(fig2_prev_pct)
        expected = {4: 0.125, 5: 0.3125, 6: 0.3125, 7: 0.1875, 8: 0.0625}
        for t, p in expected.items():
            assert result.probability_at(t) == pytest.approx(p)

    def test_convolve_with_point_is_shift(self, simple_pmf):
        shifted = simple_pmf.convolve(DiscretePMF.point(10))
        assert shifted.allclose(simple_pmf.shift(10))

    def test_convolve_commutative(self, simple_pmf, fig2_prev_pct):
        ab = simple_pmf.convolve(fig2_prev_pct)
        ba = fig2_prev_pct.convolve(simple_pmf)
        assert ab.allclose(ba)

    def test_convolve_mean_additive(self, simple_pmf, fig2_prev_pct):
        conv = simple_pmf.convolve(fig2_prev_pct)
        assert conv.mean() == pytest.approx(simple_pmf.mean() + fig2_prev_pct.mean())

    def test_convolve_zero_gives_zero(self, simple_pmf):
        assert simple_pmf.convolve(DiscretePMF.zero()).is_zero()

    def test_convolve_dense_with_sparse_matches_dense_path(self, rng):
        dense = DiscretePMF.from_samples(rng.gamma(4, 20, size=400))
        sparse = DiscretePMF.from_impulses({10: 0.5, 300: 0.5})
        expected = np.convolve(dense.probs, sparse.probs)
        result = dense.convolve(sparse)
        assert np.allclose(result.probs, expected)

    def test_truncate_before(self, simple_pmf):
        truncated = simple_pmf.truncate_before(2)
        assert truncated.probability_at(1) == pytest.approx(0.25)
        assert truncated.probability_at(2) == 0.0
        assert truncated.total_mass() == pytest.approx(0.25)

    def test_truncate_before_everything(self, simple_pmf):
        assert simple_pmf.truncate_before(1).is_zero()

    def test_truncate_before_nothing(self, simple_pmf):
        assert simple_pmf.truncate_before(100).allclose(simple_pmf)

    def test_truncate_from(self, simple_pmf):
        truncated = simple_pmf.truncate_from(2)
        assert truncated.probability_at(1) == 0.0
        assert truncated.total_mass() == pytest.approx(0.75)

    def test_truncate_partition(self, simple_pmf):
        for cut in range(0, 6):
            before = simple_pmf.truncate_before(cut).total_mass()
            after = simple_pmf.truncate_from(cut).total_mass()
            assert before + after == pytest.approx(simple_pmf.total_mass())

    def test_collapse_tail_to_preserves_mass(self, simple_pmf):
        collapsed = simple_pmf.collapse_tail_to(2)
        assert collapsed.total_mass() == pytest.approx(1.0)
        assert collapsed.probability_at(2) == pytest.approx(0.75)
        assert collapsed.max_time == 2

    def test_collapse_tail_before_support(self, simple_pmf):
        collapsed = simple_pmf.collapse_tail_to(0)
        assert collapsed.probability_at(0) == pytest.approx(1.0)

    def test_collapse_tail_after_support_is_identity(self, simple_pmf):
        assert simple_pmf.collapse_tail_to(50).allclose(simple_pmf)

    def test_add_merges_mass(self):
        a = DiscretePMF.from_impulses({1: 0.25, 2: 0.25})
        b = DiscretePMF.from_impulses({2: 0.25, 5: 0.25})
        merged = a.add(b)
        assert merged.probability_at(2) == pytest.approx(0.5)
        assert merged.total_mass() == pytest.approx(1.0)

    def test_aggregate_reduces_impulses_and_preserves_mass(self, rng):
        pmf = DiscretePMF.from_samples(rng.gamma(2, 50, size=500))
        aggregated = pmf.aggregate(8)
        assert np.count_nonzero(aggregated.probs) <= 8
        assert aggregated.total_mass() == pytest.approx(pmf.total_mass())
        assert aggregated.mean() == pytest.approx(pmf.mean(), rel=0.05)

    def test_aggregate_noop_when_small(self, simple_pmf):
        assert simple_pmf.aggregate(10).allclose(simple_pmf)

    def test_aggregate_invalid(self, simple_pmf):
        with pytest.raises(ValueError):
            simple_pmf.aggregate(0)


class TestSamplingAndComparison:
    def test_sample_values_lie_in_support(self, simple_pmf, rng):
        draws = simple_pmf.sample(rng, size=200)
        assert set(np.unique(draws)).issubset({1, 2, 3})

    def test_sample_single_value(self, simple_pmf, rng):
        value = simple_pmf.sample(rng)
        assert value in (1, 2, 3)

    def test_sample_distribution_roughly_matches(self, simple_pmf, rng):
        draws = simple_pmf.sample(rng, size=5000)
        frac_two = np.mean(draws == 2)
        assert 0.42 < frac_two < 0.58

    def test_sample_zero_mass_raises(self, rng):
        with pytest.raises(ValueError):
            DiscretePMF.zero().sample(rng)

    @pytest.mark.parametrize(
        "pmf",
        [
            DiscretePMF.from_impulses({1: 0.25, 2: 0.5, 3: 0.25}),
            DiscretePMF.from_samples(np.random.default_rng(3).gamma(4.0, 20.0, size=500)),
            DiscretePMF(np.array([0.1, 0.0, 0.2, 0.3]), offset=7),  # sub-normalised
            DiscretePMF.point(42),
        ],
        ids=["simple", "gamma-histogram", "sub-normalised", "point"],
    )
    def test_sample_stream_is_generator_choice(self, pmf):
        """``sample`` is ``Generator.choice`` over the renormalised PMF: same
        values one draw at a time and with ``size=``, same generator state."""
        p = pmf.probs / pmf.total_mass()
        ours, theirs = np.random.default_rng(99), np.random.default_rng(99)
        for _ in range(300):
            assert pmf.sample(ours) == int(theirs.choice(pmf.times, p=p))
        drawn = pmf.sample(ours, size=400)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, theirs.choice(pmf.times, size=400, p=p))
        assert np.array_equal(
            pmf.sample(ours, size=(3, 5)), theirs.choice(pmf.times, size=(3, 5), p=p)
        )
        assert ours.random() == theirs.random()

    def test_allclose_with_different_padding(self):
        a = DiscretePMF(np.array([0.0, 0.5, 0.5, 0.0]), offset=0)
        b = DiscretePMF(np.array([0.5, 0.5]), offset=1)
        assert a.allclose(b)

    def test_allclose_detects_difference(self, simple_pmf):
        other = DiscretePMF.from_impulses({1: 0.2, 2: 0.5, 3: 0.3})
        assert not simple_pmf.allclose(other)

    def test_to_impulses_round_trip(self, simple_pmf):
        rebuilt = DiscretePMF.from_impulses(simple_pmf.to_impulses())
        assert rebuilt.allclose(simple_pmf)

    def test_mass_tolerance_exported(self):
        assert 0 < MASS_TOLERANCE < 1e-6


def test_skewness_is_the_two_pass_formula_bit_for_bit():
    """Centred times are built once now; the moments must not move a bit."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        size = int(rng.integers(1, 300))
        probs = rng.random(size) * (rng.random(size) < rng.random())
        if not probs.any():
            probs[0] = 1.0
        pmf = DiscretePMF._raw(probs * (rng.random() / probs.sum()), int(rng.integers(-50, 5000)))
        total, mu = pmf.total_mass(), pmf.mean()
        want = 0.0
        if total > MASS_TOLERANCE:
            var = float(np.dot((pmf.times - mu) ** 2, pmf.probs) / total)
            if var > MASS_TOLERANCE:
                want = float(np.dot((pmf.times - mu) ** 3, pmf.probs) / total) / var**1.5
        assert pmf.skewness() == want
        assert pmf.bounded_skewness() == float(np.clip(want, -1.0, 1.0))
        assert type(pmf.bounded_skewness()) is float
