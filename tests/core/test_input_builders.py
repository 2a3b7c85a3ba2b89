"""A trial's input builders against the loops they replaced, at atol=0.

``DiscretePMF.from_samples`` (every PET entry) now histograms with one
``np.bincount`` instead of ``np.unique`` → dict → ``from_impulses``, and
``generate_scale_trace`` builds its ``TaskSpec``s from column lists instead
of reading NumPy scalars one index at a time.  The old code lives on here
as the reference: every PMF and every trace must come out bit for bit the
same.  The decision digests only notice a PET change that flips a
decision, so the PETs the bench and the figures build are fingerprinted
too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pmf import _MAX_SUPPORT_BINS, DiscretePMF
from repro.pet.builders import build_pet_from_means, build_spec_pet, build_transcoding_pet
from repro.pet.matrix import PETMatrix
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace
from repro.workload.spec import TaskSpec

#: SHA-256 over every entry of ``build_spec_pet(rng=2019)`` and then
#: ``build_transcoding_pet(rng=2019)``, row by row: the entry's offset as
#: eight little-endian bytes, then its ``probs`` as little-endian float64.
PET_FINGERPRINT = "33774fd130e5673428097d7932e2909ce76381bedac30780f9b00a7900a077f9"


def unique_from_samples(samples, *, bin_width: int = 1, min_time: int = 1) -> DiscretePMF:
    """``DiscretePMF.from_samples`` as it was: ``np.unique`` → dict → impulses."""
    arr = np.asarray(samples, dtype=np.float64)
    quantised = np.maximum(np.rint(arr / bin_width).astype(np.int64) * bin_width, min_time)
    values, counts = np.unique(quantised, return_counts=True)
    probs = counts.astype(np.float64) / counts.sum()
    return DiscretePMF.from_impulses(dict(zip(values.tolist(), probs.tolist())))


def same_pmf(a: DiscretePMF, b: DiscretePMF) -> bool:
    return a.offset == b.offset and a.probs.tobytes() == b.probs.tobytes()


@st.composite
def gamma_samples(draw) -> np.ndarray:
    """A PET entry's draw: gamma execution times around a positive mean."""
    seed = draw(st.integers(0, 2**32 - 1))
    shape = draw(st.floats(0.2, 20.0))
    mean = draw(st.floats(0.5, 2_000.0))
    size = draw(st.integers(1, 600))
    return np.random.default_rng(seed).standard_gamma(shape, size=size) * (mean / shape)


#: Small integers (some below ``min_time``, some negative), a single
#: sample, all-equal samples and gamma draws.
SAMPLES = st.one_of(
    gamma_samples(),
    st.lists(st.integers(-20, 60), min_size=1, max_size=80).map(np.array),
    st.lists(st.floats(-5.0, 50.0), min_size=1, max_size=40).map(np.array),
    st.floats(-10.0, 1e6).map(lambda x: np.array([x])),
    st.tuples(st.integers(-10, 500), st.integers(1, 300)).map(lambda vn: np.full(vn[1], vn[0])),
)


class TestFromSamples:
    @settings(max_examples=200, deadline=None)
    @given(samples=SAMPLES, bin_width=st.integers(1, 5), min_time=st.integers(-3, 12))
    def test_matches_unique_histogram(self, samples, bin_width, min_time):
        new = DiscretePMF.from_samples(samples, bin_width=bin_width, min_time=min_time)
        old = unique_from_samples(samples, bin_width=bin_width, min_time=min_time)
        assert same_pmf(new, old)

    @pytest.mark.parametrize(
        "samples, bin_width",
        [([1e300], 1), ([5.0, -1e300], 1), ([2.0**63], 1), ([-(2.0**64)], 1), ([3.0 * 2**62], 2)],
    )
    def test_sample_beyond_the_integer_grid_is_refused(self, samples, bin_width):
        """The int64 cast used to wrap and ``min_time`` hid it: ``[1e300]``
        came back as a point mass at 1."""
        with pytest.raises(ValueError, match="signed 64-bit"):
            DiscretePMF.from_samples(samples, bin_width=bin_width)

    @pytest.mark.parametrize("bin_width", [1, 3])
    def test_grid_edges_still_fit(self, bin_width):
        pmf = DiscretePMF.from_samples([2.0**62], bin_width=bin_width)
        assert pmf.offset == unique_from_samples([2.0**62], bin_width=bin_width).offset
        assert pmf.probs.tolist() == [1.0]
        pmf = DiscretePMF.from_samples([-(2.0**63)], bin_width=bin_width, min_time=1)
        assert pmf.offset == 1 and pmf.probs.tolist() == [1.0]

    def test_huge_finite_mean_is_refused_not_wrapped(self):
        with pytest.raises(ValueError, match="signed 64-bit"):
            build_pet_from_means([[1e300]], task_types=["t"], machine_names=["m"], rng=0)


class TestSupportBound:
    """A support too wide to allocate is refused before allocating: the
    histogram of ``[1.0, 1e12]`` used to end in a 7.28 TiB ``MemoryError``."""

    @pytest.mark.parametrize(
        "samples", [[1.0, 1e12], [1.0, float(_MAX_SUPPORT_BINS + 1)], [-(2.0**62), 2.0**62]]
    )
    def test_from_samples_refuses_a_wide_support(self, samples):
        with pytest.raises(ValueError, match="bins"):
            DiscretePMF.from_samples(samples, min_time=-(2**63))

    @pytest.mark.parametrize("hi", [_MAX_SUPPORT_BINS, 10**12])
    def test_from_impulses_refuses_a_wide_support(self, hi):
        with pytest.raises(ValueError, match="bins"):
            DiscretePMF.from_impulses({0: 0.5, hi: 0.5})

    def test_the_widest_allowed_support_builds(self):
        pmf = DiscretePMF.from_samples([1.0, float(_MAX_SUPPORT_BINS)])
        assert pmf.probs.size == _MAX_SUPPORT_BINS
        pmf = DiscretePMF.from_impulses({-1: 0.5, _MAX_SUPPORT_BINS - 2: 0.5})
        assert pmf.probs.size == _MAX_SUPPORT_BINS

    def test_every_built_pet_is_far_inside_the_bound(self):
        """The widest entry of either trial PET over seeds 0-39."""
        widest = max(
            entry.probs.size
            for build in (build_spec_pet, build_transcoding_pet)
            for seed in range(40)
            for row in build(rng=seed).pmfs
            for entry in row
        )
        assert widest == 1_353
        assert widest * 100 < _MAX_SUPPORT_BINS


def loop_scale_trace(config: ScaleTraceConfig, *, rng: int, pet: PETMatrix) -> tuple:
    """``generate_scale_trace``'s tasks as they were: one index at a time."""
    rng = np.random.default_rng(rng)
    n = config.num_tasks
    avg_all = pet.overall_mean()
    avg_types = np.array(
        [pet.task_type_mean(t) for t in range(pet.num_task_types)], dtype=np.float64
    )
    time_span = max(1, int(round(n * avg_all / (pet.num_machines * config.load_factor))))
    mean_gap = time_span / n
    variance = config.variance_fraction * mean_gap
    gaps = rng.gamma(shape=mean_gap**2 / variance, scale=variance / mean_gap, size=n)
    arrivals = np.maximum(np.rint(np.cumsum(gaps)).astype(np.int64), 1)
    arrivals = np.maximum.accumulate(arrivals)
    task_types = rng.integers(0, pet.num_task_types, size=n)
    slack = avg_types[task_types] + config.beta * avg_all
    deadlines = np.rint(arrivals.astype(np.float64) + slack).astype(np.int64)
    deadlines = np.maximum(deadlines, arrivals + 1)
    return tuple(
        TaskSpec(
            arrival=int(arrivals[i]),
            task_id=i,
            task_type=int(task_types[i]),
            deadline=int(deadlines[i]),
        )
        for i in range(n)
    )


@pytest.fixture(scope="module")
def spec_pet() -> PETMatrix:
    return build_spec_pet(rng=2019)


class TestScaleTrace:
    @pytest.mark.parametrize("seed", [0, 7, 2019, 4242])
    @pytest.mark.parametrize(
        "config",
        [
            ScaleTraceConfig(num_tasks=1),
            ScaleTraceConfig(num_tasks=37, load_factor=3.0),
            ScaleTraceConfig(num_tasks=1000, load_factor=1.15),
            ScaleTraceConfig(num_tasks=2500, beta=0.0, variance_fraction=0.5),
        ],
        ids=["1", "37-oversub", "1000-bench", "2500-tight"],
    )
    def test_matches_per_index_loop(self, spec_pet, config, seed):
        trace = generate_scale_trace(config, rng=seed, pet=spec_pet)
        expected = loop_scale_trace(config, rng=seed, pet=spec_pet)
        assert trace.tasks == expected
        # Same values *and* plain Python ints, as ``int(arrivals[i])`` made.
        assert all(
            type(value) is int
            for task in trace.tasks[:50]
            for value in (task.arrival, task.task_id, task.task_type, task.deadline)
        )


def pet_fingerprint(*pets: PETMatrix) -> str:
    digest = hashlib.sha256()
    for pet in pets:
        for row in pet.pmfs:
            for entry in row:
                digest.update(entry.offset.to_bytes(8, "little", signed=True))
                digest.update(entry.probs.astype("<f8").tobytes())
    return digest.hexdigest()


def test_bench_and_figure_pets_are_pinned():
    """Every entry of the PETs a trial builds, byte for byte."""
    fingerprint = pet_fingerprint(build_spec_pet(rng=2019), build_transcoding_pet(rng=2019))
    assert fingerprint == PET_FINGERPRINT
