"""Exact-equivalence gate: batched kernels vs the scalar PMF API.

Every comparison in this module is **zero tolerance** (``atol=0`` /
bit-for-bit ``==``): the batched engine must produce exactly the floats the
scalar path produces, no matter how PMFs are grouped into batches or how
much padding the shared grid introduces.  These tests are the contract
documented in :mod:`repro.core.batch`; do not loosen them to "close enough".
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.batch import (
    PMFBatch,
    batched_convolve,
    batched_convolve_ragged,
    batched_expected_completion,
    batched_shift,
    batched_success_probability,
    sequential_sum,
)
from repro.core.pmf import DiscretePMF
from repro.heuristics.scoring import expected_completion, fast_success_probability


def dense_values(pmf: DiscretePMF, lo: int, hi: int) -> np.ndarray:
    """Probability of every time in [lo, hi] as a dense vector."""
    out = np.zeros(hi - lo + 1, dtype=np.float64)
    start = pmf.offset - lo
    out[start : start + pmf.probs.size] = pmf.probs
    return out


def assert_same_pmf_bits(a: DiscretePMF, b: DiscretePMF) -> None:
    """Both PMFs place bit-identical mass at every time."""
    lo = min(a.offset, b.offset)
    hi = max(a.max_time, b.max_time)
    va, vb = dense_values(a, lo, hi), dense_values(b, lo, hi)
    assert np.array_equal(va, vb), f"max abs diff {np.abs(va - vb).max()}"


@pytest.fixture
def mixed_pmfs(rng) -> list[DiscretePMF]:
    """A deliberately awkward batch: misaligned offsets, negative times,
    sub-normalised mass, a point mass, a zero row and a wide histogram."""
    wide = DiscretePMF.from_samples(rng.gamma(2.0, 40.0, size=400))
    return [
        DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25}),
        DiscretePMF.from_impulses({-4: 0.125, 10: 0.5, 11: 0.25}),
        DiscretePMF.point(7),
        DiscretePMF.point(3, mass=0.375),
        DiscretePMF.zero(),
        wide,
        wide.shift(100).aggregate(16),
    ]


@pytest.fixture
def kernels(rng) -> list[DiscretePMF]:
    return [
        DiscretePMF.from_impulses({0: 0.5, 5: 0.5}),
        DiscretePMF.from_impulses({-3: 0.2, -1: 0.3, 4: 0.5}),
        DiscretePMF.point(12),
        DiscretePMF.zero(),
        DiscretePMF.from_samples(rng.gamma(3.0, 15.0, size=200)),
    ]


class TestSequentialSum:
    def test_matches_python_accumulation(self, rng):
        values = rng.random((5, 37))
        expected = np.zeros(5)
        for row in range(5):
            acc = 0.0
            for value in values[row]:
                acc = acc + value
            expected[row] = acc
        assert np.array_equal(sequential_sum(values), expected)

    def test_zero_padding_is_a_bitwise_noop(self, rng):
        values = rng.random(51)
        padded = np.concatenate([np.zeros(7), values, np.zeros(13)])
        interleaved = np.zeros(102)
        interleaved[::2] = values
        reference = sequential_sum(values[None, :])[0]
        assert sequential_sum(padded[None, :])[0] == reference
        assert sequential_sum(interleaved[None, :])[0] == reference

    def test_empty_axis(self):
        assert sequential_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


class TestBatchConstruction:
    def test_round_trip_preserves_bits(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        assert batch.probs.shape[0] == len(mixed_pmfs)
        for i, pmf in enumerate(mixed_pmfs):
            assert_same_pmf_bits(batch.row(i), pmf)

    def test_total_mass_bit_identical(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        masses = batch.total_mass()
        for i, pmf in enumerate(mixed_pmfs):
            assert masses[i] == pmf.total_mass()

    def test_means_bit_identical_including_nan(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        means = batch.means()
        for i, pmf in enumerate(mixed_pmfs):
            scalar = pmf.mean()
            if math.isnan(scalar):
                assert math.isnan(means[i])
            else:
                assert means[i] == scalar


class TestBatchedShift:
    def test_scalar_shift_bit_identical(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        shifted = batched_shift(batch, -9)
        for i, pmf in enumerate(mixed_pmfs):
            assert_same_pmf_bits(shifted.row(i), pmf.shift(-9))

    def test_per_row_shift_bit_identical(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        deltas = np.array([3, -2, 0, 17, 5, -11, 4][: len(mixed_pmfs)])
        shifted = batched_shift(batch, deltas)
        for i, pmf in enumerate(mixed_pmfs):
            assert_same_pmf_bits(shifted.row(i), pmf.shift(int(deltas[i])))

    def test_bad_delta_shape_raises(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        with pytest.raises(ValueError):
            batched_shift(batch, np.array([1, 2]))


class TestBatchedConvolve:
    def test_bit_identical_to_scalar_convolve_with(self, mixed_pmfs, kernels):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        for kernel in kernels:
            out = batched_convolve(batch, kernel)
            for i, pmf in enumerate(mixed_pmfs):
                assert_same_pmf_bits(out.row(i), pmf.convolve_with(kernel))

    def test_matches_adaptive_convolve_when_kernel_is_sparse(self, mixed_pmfs):
        kernel = DiscretePMF.from_impulses({2: 0.5, 9: 0.5})
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        out = batched_convolve(batch, kernel)
        for i, pmf in enumerate(mixed_pmfs):
            if np.count_nonzero(kernel.probs) <= np.count_nonzero(pmf.probs):
                assert_same_pmf_bits(out.row(i), pmf.convolve(kernel))

    def test_convolve_with_matches_dense_convolution_values(self, rng):
        # Semantics (not bits): shift-and-add equals the brute-force sum.
        a = DiscretePMF.from_samples(rng.gamma(2.0, 10.0, size=100))
        b = DiscretePMF.from_samples(rng.gamma(3.0, 5.0, size=100)).shift(-3)
        fast = a.convolve_with(b)
        brute = np.convolve(a.probs, b.probs)
        assert np.allclose(dense_values(fast, fast.offset, fast.max_time), brute, atol=1e-15)

    def test_zero_kernel_gives_zero_batch(self, mixed_pmfs):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        out = batched_convolve(batch, DiscretePMF.zero())
        assert np.array_equal(out.probs, np.zeros_like(out.probs))


class TestBatchedConvolveRagged:
    def test_bit_identical_to_per_row_convolve_with(self, mixed_pmfs, kernels, rng):
        """Every row convolves with its own kernel; ascending-impulse
        accumulation and exact-zero padding keep each row bit-identical to
        the scalar shift-and-add, however rows are grouped."""
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        row_kernels = [kernels[i % len(kernels)] for i in range(batch.n_pmfs)]
        out = batched_convolve_ragged(batch, row_kernels)
        for i, (pmf, kernel) in enumerate(zip(mixed_pmfs, row_kernels)):
            scalar = batch.row(i).convolve_with(kernel).compact()
            got = out.row(i).compact()
            if scalar.is_zero():
                assert got.is_zero()
            else:
                assert_same_pmf_bits(got, scalar)

    def test_kernel_count_must_match_rows(self, mixed_pmfs, kernels):
        batch = PMFBatch.from_pmfs(mixed_pmfs)
        with pytest.raises(ValueError):
            batched_convolve_ragged(batch, kernels[:2])

    def test_grouping_invariance(self, mixed_pmfs, kernels):
        """A row's result does not depend on which other rows share the call."""
        full = batched_convolve_ragged(
            PMFBatch.from_pmfs(mixed_pmfs[:3]), kernels[:3]
        )
        for i in range(3):
            alone = batched_convolve_ragged(
                PMFBatch.from_pmfs([mixed_pmfs[i]]), [kernels[i]]
            )
            assert_same_pmf_bits(full.row(i).compact(), alone.row(0).compact())


class TestBatchedSuccessProbability:
    def test_grid_bit_identical_to_scalar_double_loop(self, small_gamma_pet):
        rng = np.random.default_rng(5)
        machines = list(range(small_gamma_pet.num_machines))
        availabilities = [
            DiscretePMF.from_samples(rng.gamma(2.0, 30.0, size=300)).shift(20 * j).aggregate(32)
            for j in machines
        ]
        types = rng.integers(0, small_gamma_pet.num_task_types, size=25)
        deadlines = rng.integers(10, 400, size=25)
        grid = batched_success_probability(
            PMFBatch.from_pmfs(availabilities),
            small_gamma_pet.cdf_table(),
            types,
            deadlines,
        )
        for i in range(types.size):
            for j in machines:
                scalar = fast_success_probability(
                    small_gamma_pet.get(int(types[i]), j),
                    availabilities[j],
                    int(deadlines[i]),
                )
                assert grid[i, j] == scalar, (i, j)

    def test_batch_composition_cannot_perturb_a_pair(self, small_gamma_pet):
        """The same (task, machine) pair scores bit-identically whether its
        availability is batched alone or padded against a far-away partner."""
        rng = np.random.default_rng(6)
        availability = DiscretePMF.from_samples(rng.gamma(2.0, 25.0, size=200)).aggregate(24)
        far_partner = DiscretePMF.point(5000)
        types = np.array([0, 1, 2, 3])
        deadlines = np.array([60, 120, 240, 480])
        alone = batched_success_probability(
            PMFBatch.from_pmfs([availability]),
            small_gamma_pet.cdf_table(),
            types,
            deadlines,
            machine_indices=np.array([1]),
        )
        padded = batched_success_probability(
            PMFBatch.from_pmfs([availability, far_partner]),
            small_gamma_pet.cdf_table(),
            types,
            deadlines,
            machine_indices=np.array([1, 2]),
        )
        assert np.array_equal(alone[:, 0], padded[:, 0])

    def test_zero_mass_availability_scores_zero(self, small_gamma_pet):
        grid = batched_success_probability(
            PMFBatch.from_pmfs([DiscretePMF.zero()]),
            small_gamma_pet.cdf_table(),
            np.array([0]),
            np.array([1000]),
        )
        assert grid[0, 0] == 0.0

    def test_empty_task_axis(self, small_gamma_pet):
        grid = batched_success_probability(
            PMFBatch.from_pmfs([DiscretePMF.point(3)]),
            small_gamma_pet.cdf_table(),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert grid.shape == (0, 1)

    def test_row_count_mismatch_raises(self, small_gamma_pet):
        with pytest.raises(ValueError):
            batched_success_probability(
                PMFBatch.from_pmfs([DiscretePMF.point(3)]),
                small_gamma_pet.cdf_table(),
                np.array([0]),
                np.array([10]),
                machine_indices=np.array([0, 1]),
            )

    def test_bounded_by_one(self, small_gamma_pet):
        grid = batched_success_probability(
            PMFBatch.from_pmfs([DiscretePMF.point(0)]),
            small_gamma_pet.cdf_table(),
            np.zeros(8, dtype=np.int64) % small_gamma_pet.num_task_types,
            np.full(8, 10_000),
        )
        assert np.all(grid <= 1.0) and np.all(grid >= 0.0)


class TestBatchedExpectedCompletion:
    def test_bit_identical_to_scalar(self, small_gamma_pet):
        rng = np.random.default_rng(7)
        availabilities = [
            DiscretePMF.from_samples(rng.gamma(2.0, 20.0, size=150)).aggregate(16)
            for _ in range(small_gamma_pet.num_machines)
        ]
        means = np.array([a.mean() for a in availabilities])
        exec_means = small_gamma_pet.mean_execution_times()
        grid = batched_expected_completion(means, exec_means)
        for t in range(small_gamma_pet.num_task_types):
            for j in range(small_gamma_pet.num_machines):
                scalar = expected_completion(small_gamma_pet.get(t, j), availabilities[j])
                assert grid[t, j] == scalar

    def test_nan_availability_propagates(self):
        grid = batched_expected_completion(
            np.array([np.nan, 10.0]), np.array([[1.0, 2.0]])
        )
        assert math.isnan(grid[0, 0]) and grid[0, 1] == 12.0
