"""Edge cases of the scalar PMF algebra that the batch engine must honour.

The batched kernels of :mod:`repro.core.batch` treat the scalar
:class:`DiscretePMF` behaviour as the specification.  This module pins down
the corners that padding and batching make easy to get wrong: zero-mass
(empty-support) PMFs, single-atom PMFs, convolutions of operands with
misaligned (including negative) offsets, and probability-mass conservation
under the truncation/collapse operators of Eqs. 3-5.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.pmf import DiscretePMF


class TestEmptySupport:
    """A zero-mass PMF is the absorbing element of the algebra."""

    def test_zero_pmf_properties(self):
        zero = DiscretePMF.zero()
        assert zero.is_zero()
        assert zero.total_mass() == 0.0
        assert math.isnan(zero.mean())
        assert zero.support() == (0, 0)

    def test_convolve_with_zero_is_zero(self, simple_pmf):
        assert simple_pmf.convolve(DiscretePMF.zero()).is_zero()
        assert DiscretePMF.zero().convolve(simple_pmf).is_zero()
        assert simple_pmf.convolve_with(DiscretePMF.zero()).is_zero()
        assert DiscretePMF.zero().convolve_with(simple_pmf).is_zero()

    def test_zero_convolution_keeps_summed_offset(self, simple_pmf):
        out = simple_pmf.convolve(DiscretePMF.zero().shift(5))
        assert out.is_zero()
        assert out.offset == simple_pmf.offset + 5

    def test_truncations_of_zero_stay_zero(self):
        zero = DiscretePMF.zero()
        assert zero.truncate_before(10).is_zero()
        assert zero.truncate_from(-10).is_zero()
        assert zero.collapse_tail_to(3).is_zero()

    def test_normalise_and_sample_reject_zero(self):
        zero = DiscretePMF.zero()
        with pytest.raises(ValueError):
            zero.normalise()
        with pytest.raises(ValueError):
            zero.sample(np.random.default_rng(0))


class TestSingleAtom:
    """Point masses: the availability PMF of an idle machine."""

    def test_point_convolution_is_translation(self, simple_pmf):
        shifted = simple_pmf.convolve(DiscretePMF.point(10))
        assert shifted.allclose(simple_pmf.shift(10), atol=0)

    def test_point_times_point(self):
        out = DiscretePMF.point(4).convolve(DiscretePMF.point(-7))
        assert out.support() == (-3, -3)
        assert out.probability_at(-3) == 1.0

    def test_sub_normalised_point_scales_mass(self, simple_pmf):
        out = simple_pmf.convolve(DiscretePMF.point(0, mass=0.5))
        assert out.total_mass() == pytest.approx(0.5 * simple_pmf.total_mass())

    def test_point_moments(self):
        point = DiscretePMF.point(42)
        assert point.mean() == 42.0
        assert point.variance() == 0.0
        assert point.skewness() == 0.0

    @pytest.mark.parametrize(
        "mass", [-0.1, -1e-6, 1.0 + 1e-5, 2.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_point_rejects_what_the_constructor_rejects(self, mass):
        with pytest.raises(ValueError):
            DiscretePMF.point(3, mass=mass)
        with pytest.raises(ValueError):
            DiscretePMF(np.array([mass]), offset=3)

    @pytest.mark.parametrize("mass", [0.0, -1e-12, 0.25, 1.0, 1.0 + 1e-7])
    def test_point_builds_what_the_constructor_builds(self, mass):
        point = DiscretePMF.point(-4, mass=mass)
        built = DiscretePMF(np.array([mass]), offset=-4)
        assert point.offset == built.offset == -4
        assert np.array_equal(point.probs, built.probs)
        assert point.probs.dtype == np.float64 and point.probs[0] >= 0.0

    def test_zero_is_one_empty_bin_at_the_origin(self):
        zero = DiscretePMF.zero()
        assert zero.offset == 0 and zero.probs.tolist() == [0.0]


class TestMisalignedConvolution:
    """Operands whose supports start at wildly different (even negative) times."""

    @pytest.mark.parametrize("shift_a, shift_b", [(0, 0), (-15, 4), (100, -100), (7, 1000)])
    def test_offsets_add_and_values_match_brute_force(self, shift_a, shift_b):
        a = DiscretePMF.from_impulses({0: 0.25, 1: 0.5, 4: 0.25}).shift(shift_a)
        b = DiscretePMF.from_impulses({0: 0.125, 2: 0.375, 3: 0.5}).shift(shift_b)
        out = a.convolve(b)
        assert out.offset == a.offset + b.offset
        brute: dict[int, float] = {}
        for ta, pa in a.to_impulses().items():
            for tb, pb in b.to_impulses().items():
                brute[ta + tb] = brute.get(ta + tb, 0.0) + pa * pb
        for t, p in brute.items():
            assert out.probability_at(t) == pytest.approx(p, abs=1e-15)
        assert out.total_mass() == pytest.approx(a.total_mass() * b.total_mass())

    def test_convolve_orderings_agree(self):
        a = DiscretePMF.from_impulses({-3: 0.5, 9: 0.5})
        b = DiscretePMF.from_impulses({1: 0.2, 2: 0.3, 6: 0.5})
        assert a.convolve(b).allclose(b.convolve(a), atol=1e-15)
        assert a.convolve_with(b).allclose(b.convolve_with(a), atol=1e-15)


class TestTruncationMassConservation:
    """Eqs. 3-5 split mass; nothing may leak and nothing may be invented."""

    @pytest.fixture
    def lumpy(self) -> DiscretePMF:
        return DiscretePMF.from_impulses(
            {2: 0.125, 3: 0.25, 7: 0.125, 11: 0.25, 12: 0.125, 20: 0.125}
        )

    @pytest.mark.parametrize("cut", [-5, 2, 3, 8, 12, 20, 21, 50])
    def test_truncations_partition_total_mass(self, lumpy, cut):
        before = lumpy.truncate_before(cut).total_mass()
        after = lumpy.truncate_from(cut).total_mass()
        assert before + after == pytest.approx(lumpy.total_mass(), abs=1e-15)

    @pytest.mark.parametrize("cut", [-5, 2, 8, 12, 20, 21, 50])
    def test_collapse_tail_conserves_mass(self, lumpy, cut):
        collapsed = lumpy.collapse_tail_to(cut)
        assert collapsed.total_mass() == pytest.approx(lumpy.total_mass(), abs=1e-15)
        assert collapsed.max_time <= max(cut, lumpy.max_time)
        # Mass strictly before the cut is untouched, bit for bit.
        for t in range(lumpy.min_time, cut):
            assert collapsed.probability_at(t) == lumpy.probability_at(t)

    def test_truncate_before_then_from_are_disjoint(self, lumpy):
        head = lumpy.truncate_before(11)
        tail = lumpy.truncate_from(11)
        assert head.max_time < 11 or head.is_zero()
        assert tail.min_time >= 11 or tail.is_zero()
        merged = head.add(tail)
        assert merged.allclose(lumpy, atol=0)

    def test_aggregate_preserves_mass_under_truncation_interplay(self, lumpy):
        truncated = lumpy.truncate_before(13)
        aggregated = truncated.aggregate(2)
        assert aggregated.total_mass() == pytest.approx(truncated.total_mass(), abs=1e-15)
        assert np.count_nonzero(aggregated.probs) <= 2
