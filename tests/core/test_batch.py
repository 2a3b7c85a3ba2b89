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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    CDFTable,
    PMFBatch,
    batched_convolve,
    batched_convolve_ragged,
    batched_expected_completion,
    batched_shift,
    batched_success_probability,
    pack_batch,
    pack_impulses,
    packed_success_probability,
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
        with pytest.raises(ValueError, match="one kernel per row"):
            batched_convolve_ragged(batch, kernels[:2])

    def test_the_numpy_name_forwards_here(self):
        """``repro.core.kernels.get_backend`` is a name for this function only."""
        from repro.core.kernels import get_backend

        assert get_backend("numpy").convolve_ragged is batched_convolve_ragged
        assert get_backend("numpy") is get_backend("numpy")

    @pytest.mark.parametrize("name", ["numba", "array-api", "cuda"])
    def test_no_other_name_is_a_backend(self, name):
        from repro.core.kernels import get_backend

        with pytest.raises(ValueError, match=f"unknown kernel backend '{name}'; the only one is 'numpy'"):
            get_backend(name)

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

    def test_all_zero_batch_packs_empty_and_scores_zero(self):
        """Two zero-mass machines pack to ``(2, 0)`` operands and score 0."""
        table = CDFTable.from_grid([[DiscretePMF.point(2), DiscretePMF.point(3)]])
        start_times, start_probs = pack_batch(PMFBatch(np.zeros((2, 3)), 0))
        assert start_times.shape == start_probs.shape == (2, 0)
        out = packed_success_probability(
            start_times, start_probs, table, np.array([0]), np.array([9])
        )
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_empty_task_axis(self, small_gamma_pet):
        grid = batched_success_probability(
            PMFBatch.from_pmfs([DiscretePMF.point(3)]),
            small_gamma_pet.cdf_table(),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert grid.shape == (0, 1)

    def test_row_count_mismatch_raises(self, small_gamma_pet):
        with pytest.raises(ValueError, match="one row per entry"):
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


# ----------------------------------------------------------------------
# Random inputs (Hypothesis) against the scalar path
# ----------------------------------------------------------------------
@st.composite
def pmf_strategy(draw, min_time=-8, max_time=50, allow_zero_mass=True):
    n = draw(st.integers(min_value=0 if allow_zero_mass else 1, max_value=5))
    if n == 0:
        return DiscretePMF.zero()
    times = draw(st.lists(st.integers(min_time, max_time), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n))
    mass = draw(st.floats(0.05, 1.0, allow_nan=False))
    scale = mass / sum(weights)
    return DiscretePMF.from_impulses({t: w * scale for t, w in zip(times, weights)})


@st.composite
def batch_strategy(draw, min_rows=1, max_rows=5, **pmf_kwargs):
    return PMFBatch.from_pmfs(
        draw(st.lists(pmf_strategy(**pmf_kwargs), min_size=min_rows, max_size=max_rows))
    )


@st.composite
def scoring_case_strategy(draw):
    """Random (availability, execution grid, tasks) scoring problem."""
    n_machines = draw(st.integers(1, 4))
    n_types = draw(st.integers(1, 3))
    n_tasks = draw(st.integers(1, 6))
    avail_pmfs = [draw(pmf_strategy(min_time=0, max_time=40)) for _ in range(n_machines)]
    grid = [
        [
            draw(pmf_strategy(min_time=1, max_time=25, allow_zero_mass=False))
            for _ in range(n_machines)
        ]
        for _ in range(n_types)
    ]
    types = draw(st.lists(st.integers(0, n_types - 1), min_size=n_tasks, max_size=n_tasks))
    deadlines = draw(st.lists(st.integers(0, 80), min_size=n_tasks, max_size=n_tasks))
    return avail_pmfs, grid, np.array(types), np.array(deadlines)


def assert_same_compact_pmf(got: DiscretePMF, want: DiscretePMF) -> None:
    """Bit-identical after compaction; zero-mass PMFs are equal regardless
    of the offset each path canonicalises to."""
    got, want = got.compact(), want.compact()
    if not (got.is_zero() and want.is_zero()):
        assert_same_pmf_bits(got, want)


@settings(max_examples=25, deadline=None)
@given(batch=batch_strategy(), data=st.data())
def test_random_convolve_ragged_matches_scalar(batch, data):
    kernels = [data.draw(pmf_strategy(min_time=0, max_time=20)) for _ in range(batch.n_pmfs)]
    out = batched_convolve_ragged(batch, kernels)
    for i in range(batch.n_pmfs):
        assert_same_compact_pmf(out.row(i), batch.row(i).convolve_with(kernels[i]))


@settings(max_examples=25, deadline=None)
@given(case=scoring_case_strategy())
def test_random_success_probability_matches_scalar(case):
    avail_pmfs, grid, types, deadlines = case
    table = CDFTable.from_grid(grid)
    packed = pack_impulses(avail_pmfs)
    out = packed_success_probability(*packed, table, types, deadlines)
    ref = batched_success_probability(PMFBatch.from_pmfs(avail_pmfs), table, types, deadlines)
    assert np.array_equal(out, ref)
    # The pair-list form, in an arbitrary order, is the same numbers.
    rows, slots = np.nonzero(np.ones(out.shape, dtype=bool))
    order = np.random.default_rng(out.size).permutation(rows.size)
    listed = packed_success_probability(
        *packed, table, types, deadlines, pairs=(rows[order], slots[order])
    )
    assert np.array_equal(listed, ref[rows[order], slots[order]])
    for i, (task_type, deadline) in enumerate(zip(types, deadlines)):
        for j, avail in enumerate(avail_pmfs):
            assert out[i, j] == fast_success_probability(grid[task_type][j], avail, int(deadline))


@settings(max_examples=25, deadline=None)
@given(case=scoring_case_strategy())
def test_random_expected_completion_matches_scalar(case):
    avail_pmfs, grid, types, _ = case
    means = np.array([p.mean() for p in avail_pmfs], dtype=np.float64)
    exec_means = np.array(
        [[grid[t][j].mean() for j in range(len(avail_pmfs))] for t in types], dtype=np.float64
    )
    out = batched_expected_completion(means, exec_means)
    for i, task_type in enumerate(types):
        for j, avail in enumerate(avail_pmfs):
            scalar = expected_completion(grid[task_type][j], avail)
            if np.isnan(scalar):
                assert np.isnan(out[i, j])
            else:
                assert out[i, j] == scalar


@settings(max_examples=25, deadline=None)
@given(batch=batch_strategy(), data=st.data())
def test_random_shift_matches_scalar(batch, data):
    delta = data.draw(st.integers(-10, 10))
    out = batched_shift(batch, delta)
    for i in range(batch.n_pmfs):
        assert_same_compact_pmf(out.row(i), batch.row(i).shift(delta))

    deltas = data.draw(
        st.lists(st.integers(-10, 10), min_size=batch.n_pmfs, max_size=batch.n_pmfs)
    )
    out = batched_shift(batch, np.array(deltas, dtype=np.int64))
    for i, delta in enumerate(deltas):
        assert_same_compact_pmf(out.row(i), batch.row(i).shift(delta))


@settings(max_examples=25, deadline=None)
@given(batch=batch_strategy(), kernel=pmf_strategy(min_time=0, max_time=20))
def test_random_convolve_matches_scalar(batch, kernel):
    out = batched_convolve(batch, kernel)
    for i in range(batch.n_pmfs):
        assert_same_compact_pmf(out.row(i), batch.row(i).convolve_with(kernel))


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=0, max_size=8),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_random_sequential_sum_matches_python_accumulation(values):
    arr = np.array(values, dtype=np.float64)
    for axis in (-1, 0, 1):
        expected = []
        for line in np.moveaxis(arr, axis, -1):
            acc = 0.0
            for value in line:
                acc = acc + value
            expected.append(acc)
        assert np.array_equal(sequential_sum(arr, axis=axis), np.array(expected))
