"""The vectorised PMF kernels against the loops they replaced, at atol=0.

``shift_and_add`` (behind the chain step and ``DiscretePMF.convolve`` /
``convolve_with``) and the ``bincount`` tail of
``DiscretePMF.aggregate`` replaced a Python impulse loop and an ``np.add.at`` scatter.  The old code
lives on here as the reference: operands recorded from a real trial, plus
the edge cases, must come out bit for bit the same.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import pmf as pmf_module
from repro.core.pmf import DiscretePMF, shift_and_add
from repro.heuristics.registry import make_heuristic
from repro.pet.builders import build_transcoding_pet
from repro.simulator.engine import simulate
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)


def loop_convolve(dense: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The impulse loop ``convolve_with`` ran before it was vectorised."""
    width = dense.size
    probs = np.zeros(width + kernel.size - 1, dtype=np.float64)
    for index in np.flatnonzero(kernel).tolist():
        probs[index : index + width] += kernel[index] * dense
    return probs


def add_at_aggregate(pmf: DiscretePMF, max_impulses: int) -> DiscretePMF:
    """``DiscretePMF.aggregate`` as it was: two scans and an ``np.add.at``."""
    compacted = pmf.compact()
    nz = np.nonzero(compacted.probs)[0]
    if nz.size <= max_impulses:
        return compacted
    n = compacted.probs.size
    rel = np.arange(n)
    group = (rel * max_impulses) // n
    mass = np.bincount(group, weights=compacted.probs, minlength=max_impulses)
    weighted_rel = np.bincount(group, weights=compacted.probs * rel, minlength=max_impulses)
    keep = mass > 0.0
    centres = np.rint(weighted_rel[keep] / mass[keep]).astype(np.int64)
    lo, hi = int(centres.min()), int(centres.max())
    probs = np.zeros(hi - lo + 1, dtype=np.float64)
    np.add.at(probs, centres - lo, mass[keep])
    return DiscretePMF._raw(probs, compacted.offset + lo)


def same_pmf(a: DiscretePMF, b: DiscretePMF) -> bool:
    return a.offset == b.offset and np.array_equal(a.probs, b.probs)


@pytest.fixture(scope="module")
def recorded():
    """Operands of every shift-and-add and every re-binning of a real trial.

    Recorded at the shared primitives themselves — ``pmf.shift_and_add``,
    which ``convolve_probs`` calls for the chain step and for
    ``DiscretePMF.convolve`` alike, and ``DiscretePMF._rebin``, the body of
    ``aggregate`` and of the chain step's impulse cap.
    """
    convolutions: list[tuple[np.ndarray, np.ndarray]] = []
    aggregations: list[tuple[DiscretePMF, int]] = []
    shift_and_add, rebin = pmf_module.shift_and_add, DiscretePMF._rebin

    def recording_shift_and_add(dense, kernel):
        convolutions.append((dense, kernel))
        return shift_and_add(dense, kernel)

    def recording_rebin(self, max_impulses):
        aggregations.append((self, max_impulses))
        return rebin(self, max_impulses)

    pet = build_transcoding_pet(rng=2019)
    trace = load_trace(REFERENCE_TRACE)
    # 350 tasks: no convolution is run twice any more, so 200 give under 300,
    # and a head that starts when the chain was walked is not re-walked, so
    # 300 give 287 (420 before).
    prefix = type(trace)(trace.tasks[:350], trace.config)
    pmf_module.shift_and_add = recording_shift_and_add
    DiscretePMF._rebin = recording_rebin
    try:
        simulate(pet, make_heuristic("PAMF", num_task_types=pet.num_task_types), prefix, rng=2021)
    finally:
        pmf_module.shift_and_add = shift_and_add
        DiscretePMF._rebin = rebin
    return convolutions, aggregations


def test_recorded_convolutions_match_the_loop(recorded):
    convolutions, _ = recorded
    assert len(convolutions) >= 300
    assert any(np.count_nonzero(kernel) > 100 for _, kernel in convolutions)
    for dense, kernel in convolutions:
        assert dense.shape[0] == 1
        assert np.array_equal(shift_and_add(dense, kernel)[0], loop_convolve(dense[0], kernel))


def test_recorded_aggregations_match_add_at(recorded):
    _, aggregations = recorded
    assert len(aggregations) >= 300
    assert any(pmf.nonzero_count() > cap for pmf, cap in aggregations)
    for pmf, cap in aggregations:
        assert same_pmf(pmf.aggregate(cap), add_at_aggregate(pmf, cap))


@pytest.mark.parametrize("cap", [1, 2, 5, 32])
def test_aggregate_matches_add_at_when_groups_collide(cap):
    rng = np.random.default_rng(cap)
    for _ in range(50):
        # Mass in tight clumps far apart: neighbouring groups round onto the
        # same centre, the case where the accumulation order matters.
        probs = np.zeros(400)
        for start in rng.integers(0, 390, size=6):
            probs[start : start + 6] = rng.random(6)
        pmf = DiscretePMF(probs / probs.sum(), offset=int(rng.integers(-50, 50)))
        assert same_pmf(pmf.aggregate(cap), add_at_aggregate(pmf, cap))


def test_aggregate_and_compact_cache_the_nonzero_count():
    pmf = DiscretePMF(np.array([0.0, 0.25, 0.0, 0.5, 0.0]), offset=3)
    assert pmf.compact().__dict__["_nonzero_cache"] == 2
    assert pmf.aggregate(8).__dict__["_nonzero_cache"] == 2
    assert pmf.nonzero_count() == 2 == int(np.count_nonzero(pmf.probs))


# ----------------------------------------------------------------------
# Edge cases of the convolution.
# ----------------------------------------------------------------------
def random_pmf(rng, size: int, nonzero: int, offset: int = 0) -> DiscretePMF:
    probs = np.zeros(size)
    where = rng.choice(size, size=nonzero, replace=False)
    probs[where] = rng.random(nonzero)
    return DiscretePMF(probs / probs.sum(), offset=offset)


@pytest.mark.parametrize(
    "dense_size, kernel_size, kernel_nonzero",
    [
        (1, 1, 1),  # point * point
        (40, 1, 1),  # single-impulse kernel
        (1, 40, 40),  # point operand, dense kernel
        (75, 200, 1),  # one impulse deep inside a wide kernel
        (160, 160, 32),  # an aggregated predecessor
        (230, 130, 118),  # an executing-task anchor
        (90, 300, 300),  # fully dense 300-impulse kernel
        (7, 3, 2),
    ],
)
def test_convolve_with_matches_the_loop(dense_size, kernel_size, kernel_nonzero):
    rng = np.random.default_rng(dense_size * 1000 + kernel_size)
    dense = random_pmf(rng, dense_size, max(1, dense_size // 2), offset=-17)
    kernel = random_pmf(rng, kernel_size, kernel_nonzero, offset=-5)
    got = dense.convolve_with(kernel)
    assert got.offset == -22
    assert np.array_equal(got.probs, loop_convolve(dense.probs, kernel.probs))


def test_zero_mass_operands_keep_the_scalar_convention():
    pmf = DiscretePMF.from_impulses({3: 0.5, 4: 0.5})
    for got in (pmf.convolve_with(DiscretePMF.zero()), DiscretePMF.zero().convolve_with(pmf)):
        assert same_pmf(got, DiscretePMF._raw(np.array([0.0]), pmf.offset))


def test_leading_and_trailing_zero_bins_change_nothing():
    rng = np.random.default_rng(8)
    dense = random_pmf(rng, 60, 30)
    kernel = random_pmf(rng, 25, 9)
    padded_kernel = DiscretePMF._raw(
        np.concatenate([np.zeros(4), kernel.probs, np.zeros(6)]), kernel.offset - 4
    )
    want = dense.convolve_with(kernel)
    got = dense.convolve_with(padded_kernel)
    assert same_pmf(got.compact(), want.compact())


def test_batched_rows_equal_the_one_row_case():
    rng = np.random.default_rng(12)
    pmfs = [random_pmf(rng, int(rng.integers(5, 120)), 5, offset=int(rng.integers(-9, 40))) for _ in range(17)]
    kernel = random_pmf(rng, 150, 110, offset=-3)
    # The rows on one shared grid: an (n, width) operand, zero-padded.
    lo = min(pmf.offset for pmf in pmfs)
    dense = np.zeros((len(pmfs), max(pmf.max_time for pmf in pmfs) - lo + 1))
    for i, pmf in enumerate(pmfs):
        dense[i, pmf.offset - lo : pmf.offset - lo + pmf.probs.size] = pmf.probs
    out = shift_and_add(dense, kernel.probs)
    for i, pmf in enumerate(pmfs):
        row = DiscretePMF._raw(out[i], lo + kernel.offset)
        assert same_pmf(row.compact(), pmf.convolve_with(kernel).compact())
        assert np.array_equal(out[i], loop_convolve(dense[i], kernel.probs))


@pytest.mark.parametrize(
    "rows, width, support",
    [(1, 64, 64), (3, 130, 130), (40, 33, 40), (2, 9, 300), (1, 600, 600)],
)
def test_reduction_runs_down_the_impulse_axis_in_ascending_order(rows, width, support):
    """Pin what ``shift_and_add`` relies on ``np.add.reduce`` for.

    Every output bin sums many products whose magnitudes span thirty
    decades, so any other grouping of them (descending, pairwise, blocked)
    rounds differently — the descending loop is checked to, here.
    """
    rng = np.random.default_rng(rows + width + support)
    dense = rng.random((rows, width)) * 10.0 ** rng.integers(-15, 15, size=(rows, width))
    kernel = rng.random(support) * 10.0 ** rng.integers(-15, 15, size=support)
    out = shift_and_add(dense, kernel)
    for i in range(rows):
        assert np.array_equal(out[i], loop_convolve(dense[i], kernel))
    descending = np.zeros(width + support - 1)
    for index in reversed(range(support)):
        descending[index : index + width] += kernel[index] * dense[0]
    assert not np.array_equal(out[0], descending)
