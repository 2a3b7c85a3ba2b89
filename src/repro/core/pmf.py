"""Discrete probability mass functions on an integer time grid.

The paper models every execution time and completion time as a Probability
Mass Function (PMF) made of impulses at discrete time units.  This module
provides :class:`DiscretePMF`, the dense vector representation used by the
rest of the library: a NumPy probability vector anchored at an integer
``offset``.  All PMF algebra needed by the paper is implemented here:

* construction from impulses or samples,
* shifting (task start time, Section IV),
* convolution (queue completion times, Eq. 2),
* truncation and mass queries (pending/evict dropping, Eqs. 3-5),
* robustness / CDF evaluation (Eq. 1),
* moments and the bounded skewness ``s`` of Eq. 6 used by the dynamic
  dropping threshold (Eq. 7),
* impulse aggregation, the approximation the paper suggests to bound the
  convolution overhead.

PMFs are allowed to be *sub-normalised* (total mass below one) because the
pruning math routinely removes probability mass (e.g. the truncated
convolution of Eq. 3); helper predicates make the distinction explicit.

This class is deliberately a *thin scalar wrapper* over the same arithmetic
the batched engine in :mod:`repro.core.batch` uses: reductions
(:meth:`DiscretePMF.total_mass`, :meth:`DiscretePMF.mean`) accumulate
strictly left to right (``np.cumsum``) and :meth:`DiscretePMF.convolve_with`
is the one-row case of :func:`shift_and_add`, which accumulates the kernel's
impulses in ascending time order.  That shared op-for-op discipline is what lets the
batched kernels guarantee bit-identical (``atol=0``) results whether PMFs
are scored one at a time or as a padded ``(n_pmfs, support)`` block — see
the exact-equivalence contract documented in :mod:`repro.core.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["DiscretePMF", "MASS_TOLERANCE", "shift_and_add", "convolve_probs"]

#: Tolerance used when checking that probability mass sums to one.
MASS_TOLERANCE = 1e-9

#: Widest support, in bins, that ``from_impulses`` and ``from_samples`` will
#: allocate (8 MiB); the widest PET entry built over seeds 0-39 has 1,353.
_MAX_SUPPORT_BINS = 2**20


def _check_support(lo: int, hi: int) -> None:
    """Refuse a support too wide to allocate, before allocating it."""
    if hi - lo + 1 > _MAX_SUPPORT_BINS:
        raise ValueError(f"a PMF over [{lo}, {hi}] needs more than {_MAX_SUPPORT_BINS} bins")


def _as_probability_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"PMF probabilities must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("PMF probabilities must be non-empty")
    if np.any(~np.isfinite(arr)):
        raise ValueError("PMF probabilities must be finite")
    if np.any(arr < -MASS_TOLERANCE):
        raise ValueError("PMF probabilities must be non-negative")
    return np.clip(arr, 0.0, None)


def shift_and_add(dense: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve every row of ``dense`` with one ``kernel``, impulse by impulse.

    THE convolution of the PMF algebra: :meth:`DiscretePMF.convolve_with`
    and the sparse branch of :func:`convolve_probs` are its one-row case.

    Parameters
    ----------
    dense:
        ``(n, width)`` float64 rows.
    kernel:
        ``(support,)`` float64 vector with at least one non-zero entry; only
        its non-zero impulses cost anything.

    Returns
    -------
    np.ndarray
        ``(n, width + support - 1)``; row ``i`` is ``dense[i] * kernel``.

    Notes
    -----
    Each kernel impulse ``k`` contributes the row ``kernel[k] * dense``
    shifted right by ``k``.  The shifted copies are gathered as rows of a
    strided window over the zero-padded operand, scaled, and reduced down
    the impulse axis.  ``np.add.reduce`` over a non-contiguous axis
    accumulates slice by slice in index order, so every output bin receives
    the same products in the same (ascending impulse) order as a Python loop
    of ``out[k : k + width] += kernel[k] * dense`` — the padding only ever
    adds exact zeros.  ``tests/core/test_shift_and_add.py`` pins both that
    equivalence and the reduction order at zero tolerance.  The temporary is
    ``n * nnz(kernel)`` output rows.
    """
    n, width = dense.shape
    support = kernel.size
    impulses = kernel.nonzero()[0]
    out_width = width + support - 1
    padded = np.zeros((n, out_width + support - 1), dtype=np.float64)
    padded[:, support - 1 : support - 1 + width] = dense
    row_stride, stride = padded.strides
    # windows[i, r] is padded[i, r : r + out_width]: ``dense[i]`` shifted
    # right by ``support - 1 - r`` on the output grid.
    windows = np.ndarray(
        (n, support, out_width),
        np.float64,
        buffer=padded,
        strides=(row_stride, stride, stride),
    )
    shifted = windows[:, support - 1 - impulses]
    shifted *= kernel[impulses][None, :, None]
    return np.add.reduce(shifted, axis=1)


def convolve_probs(a: np.ndarray, a_nonzero: int, b: np.ndarray, b_nonzero: int) -> np.ndarray:
    """``a * b`` for two non-zero-mass probability vectors, by THE operand rule.

    When one operand has few non-zero impulses (an aggregated availability
    against a dense execution PMF) the shift-and-add over *its* impulses
    beats the dense ``numpy.convolve`` — same sum, far fewer operations.
    ``b`` is the sparse operand only when strictly sparser than ``a``.
    :meth:`DiscretePMF.convolve` and the chain step of
    :mod:`repro.core.completion` both choose through here, so a lone
    convolution and a chain step can never disagree in a single bit.
    """
    if b_nonzero < a_nonzero:
        sparse, dense, nonzero = b, a, b_nonzero
    else:
        sparse, dense, nonzero = a, b, a_nonzero
    if nonzero * dense.size < a.size * b.size:
        return shift_and_add(dense[None, :], sparse)[0]
    return np.convolve(a, b)


@lru_cache(maxsize=256)
def _rebin_groups(n: int, max_impulses: int) -> np.ndarray:
    """Equal-width group (of ``max_impulses``) of each of ``n`` consecutive bins."""
    group = (np.arange(n) * max_impulses) // n
    group.flags.writeable = False
    return group


@dataclass(frozen=True)
class DiscretePMF:
    """A discrete PMF over integer time units.

    Parameters
    ----------
    probs:
        Probability of each consecutive integer time starting at ``offset``.
        The vector may be sub-normalised (mass < 1) but never super-normalised
        beyond numerical tolerance.
    offset:
        Time unit of ``probs[0]``.

    Notes
    -----
    Instances are immutable; every operation returns a new PMF.  The
    representation is dense which keeps the convolution of Eq. 2 a single
    ``numpy.convolve`` call — the vectorised idiom recommended by the
    HPC-Python guides over per-impulse Python loops.
    """

    probs: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        arr = _as_probability_array(self.probs)
        total = float(arr.sum())
        if total > 1.0 + 1e-6:
            raise ValueError(f"PMF mass {total} exceeds one")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "offset", int(self.offset))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, probs: np.ndarray, offset: int) -> "DiscretePMF":
        """Internal constructor bypassing validation.

        Used by the PMF algebra (convolve/truncate/aggregate/...) where the
        result is valid by construction; skipping the per-instance validation
        keeps completion-time chains cheap (they build hundreds of thousands
        of intermediate PMFs per simulated trial).
        """
        obj = object.__new__(cls)
        obj.__dict__["probs"] = probs
        obj.__dict__["offset"] = int(offset)
        return obj

    @staticmethod
    def point(time: int, mass: float = 1.0) -> "DiscretePMF":
        """A degenerate PMF with all mass at ``time`` (e.g. an idle machine).

        Validates the scalar ``mass`` under the constructor's rules (finite,
        non-negative within :data:`MASS_TOLERANCE`, at most one) without the
        per-array checks — idle-machine availabilities and chain bases build
        one of these per query.
        """
        mass = float(mass)
        if not np.isfinite(mass):
            raise ValueError("PMF probabilities must be finite")
        if mass < -MASS_TOLERANCE:
            raise ValueError("PMF probabilities must be non-negative")
        if mass > 1.0 + 1e-6:
            raise ValueError(f"PMF mass {mass} exceeds one")
        return DiscretePMF._raw(np.array([max(mass, 0.0)]), time)

    @staticmethod
    def zero() -> "DiscretePMF":
        """A PMF carrying no probability mass at all."""
        return DiscretePMF._raw(np.array([0.0]), 0)

    @staticmethod
    def from_impulses(impulses: Mapping[int, float] | Iterable[tuple[int, float]]) -> "DiscretePMF":
        """Build a PMF from ``{time: probability}`` impulses.

        This mirrors the paper's notation where a PET entry is "a set of
        impulses" (Section IV).  A support wider than ``_MAX_SUPPORT_BINS``
        is a ``ValueError``.
        """
        if isinstance(impulses, Mapping):
            items = list(impulses.items())
        else:
            items = list(impulses)
        if not items:
            raise ValueError("at least one impulse is required")
        times = np.array([int(t) for t, _ in items], dtype=np.int64)
        masses = np.array([float(p) for _, p in items], dtype=np.float64)
        if np.any(masses < 0):
            raise ValueError("impulse probabilities must be non-negative")
        lo, hi = int(times.min()), int(times.max())
        _check_support(lo, hi)
        probs = np.zeros(hi - lo + 1, dtype=np.float64)
        np.add.at(probs, times - lo, masses)
        return DiscretePMF(probs, offset=lo)

    @staticmethod
    def from_samples(
        samples: Sequence[float] | np.ndarray,
        *,
        bin_width: int = 1,
        min_time: int = 1,
    ) -> "DiscretePMF":
        """Build a PMF by histogramming observed execution times.

        This is the offline PET-construction procedure of Section III/VI-A:
        sample execution times, histogram them, normalise.  Each sample is
        rounded to the nearest multiple of ``bin_width`` (``bin_width`` > 1
        coarsens the grid, each bin's mass placed at the bin centre) and
        raised to at least ``min_time``.  One ``np.bincount`` over the
        quantised times, offset by their minimum, gives the histogram: the
        PMF starts at the smallest quantised time, a time hit by ``c`` of
        ``N`` samples holds ``c / N`` and every other time holds an exact
        zero.  A quantised sample outside the signed 64-bit integer range,
        or a support wider than ``_MAX_SUPPORT_BINS``, is a ``ValueError``.
        """
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot build a PMF from zero samples")
        if np.any(~np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if bin_width < 1:
            raise ValueError("bin_width must be >= 1")
        scaled = np.rint(arr / bin_width)
        # Bin indices whose exact product with bin_width stays in the signed
        # 64-bit range, so the int64 product below never wraps.
        lowest, highest = -(2**63 // int(bin_width)), (2**63 - 1) // int(bin_width)
        if int(scaled.min()) < lowest or int(scaled.max()) > highest:
            raise ValueError("samples must quantise into the signed 64-bit integer range")
        quantised = np.maximum(scaled.astype(np.int64) * bin_width, min_time)
        lo = int(quantised.min())
        _check_support(lo, int(quantised.max()))
        counts = np.bincount(quantised - lo)
        return DiscretePMF(counts / counts.sum(), offset=lo)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Integer time of every bin."""
        return np.arange(self.offset, self.offset + self.probs.size, dtype=np.int64)

    @property
    def min_time(self) -> int:
        return self.offset

    @property
    def max_time(self) -> int:
        return self.offset + self.probs.size - 1

    def support(self) -> tuple[int, int]:
        """Smallest and largest time carrying non-zero mass.

        Returns ``(offset, offset)`` for an all-zero PMF.
        """
        times = self.impulses()[0]
        return (int(times[0]), int(times[-1])) if times.size else (self.offset, self.offset)

    def total_mass(self) -> float:
        """Total probability mass (1.0 for a proper PMF, less for sub-normalised ones).

        The last entry of :meth:`cumulative`: accumulated strictly left to
        right rather than with NumPy's pairwise ``sum``, so the batched
        engine (:meth:`repro.core.batch.PMFBatch.total_mass`), whose rows
        carry zero padding, reproduces the value bit for bit.
        """
        return float(self.cumulative()[-1])

    def nonzero_count(self) -> int:
        """Number of non-zero impulses.  Cached on first use.

        :meth:`convolve` and the chain step choose their operand order by
        it, mostly on PET entries that live as long as the matrix.
        """
        cached = self.__dict__.get("_nonzero_cache")
        if cached is None:
            cached = int(np.count_nonzero(self.probs))
            self.__dict__["_nonzero_cache"] = cached
        return cached

    def impulses(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and masses of the non-zero impulses, ascending in time.  Cached.

        The paper's own representation ("a set of impulses") and the operand
        of the scoring kernels: Eq. 1 sums over exactly these.
        """
        cached = self.__dict__.get("_impulses_cache")
        if cached is None:
            nonzero = self.probs.nonzero()[0]
            cached = (self.offset + nonzero, self.probs[nonzero])
            self.__dict__["_impulses_cache"] = cached
        return cached

    def is_normalised(self, tol: float = 1e-6) -> bool:
        return abs(self.total_mass() - 1.0) <= tol

    def is_zero(self, tol: float = MASS_TOLERANCE) -> bool:
        return self.total_mass() <= tol

    def probability_at(self, time: int) -> float:
        """Mass of the impulse at ``time`` (0 outside the stored range)."""
        idx = int(time) - self.offset
        if idx < 0 or idx >= self.probs.size:
            return 0.0
        return float(self.probs[idx])

    def cumulative(self) -> np.ndarray:
        """Cached cumulative sums of ``probs`` (``cumulative()[i] = P(X <= offset+i)``)."""
        cached = self.__dict__.get("_cumulative_cache")
        if cached is None:
            cached = self.probs.cumsum()
            self.__dict__["_cumulative_cache"] = cached
        return cached

    def cdf(self, time: int) -> float:
        """P(X <= time).  Eq. 1 evaluates this at the task deadline."""
        idx = int(time) - self.offset
        if idx < 0:
            return 0.0
        cumulative = self.cumulative()
        if idx >= self.probs.size:
            return float(cumulative[-1])
        return float(cumulative[idx])

    def sf(self, time: int) -> float:
        """P(X > time) — the complementary mass."""
        return self.total_mass() - self.cdf(time)

    def mass_before(self, time: int) -> float:
        """P(X < time) (strict)."""
        return self.cdf(int(time) - 1)

    def mass_from(self, time: int) -> float:
        """P(X >= time)."""
        return self.total_mass() - self.mass_before(time)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Expected value of the (renormalised) PMF.

        Returns
        -------
        float
            ``sum(t * p(t)) / total_mass``, or ``nan`` for a zero-mass PMF.
            Cached on first use.

        Notes
        -----
        Accumulated sequentially (``cumsum``) for bit-identity with
        :meth:`repro.core.batch.PMFBatch.means`, which computes the same
        value for a whole batch of padded rows at once.  Both sums run over
        :meth:`impulses` only: the zero bins they skip add exact zeros.
        """
        cached = self.__dict__.get("_mean_cache")
        if cached is not None:
            return cached
        times, probs = self.impulses()
        total = float(probs.cumsum()[-1]) if probs.size else 0.0
        if total <= MASS_TOLERANCE:
            value = float("nan")
        else:
            value = float((times * probs).cumsum()[-1] / total)
        self.__dict__["_mean_cache"] = value
        return value

    def variance(self) -> float:
        total = self.total_mass()
        if total <= MASS_TOLERANCE:
            return float("nan")
        mu = self.mean()
        return float(np.dot((self.times - mu) ** 2, self.probs) / total)

    def std(self) -> float:
        return float(np.sqrt(self.variance()))

    def skewness(self) -> float:
        """Standardised third central moment of the (renormalised) PMF.

        Degenerate (zero-variance) and zero-mass PMFs have skewness 0 by
        convention, matching how the paper treats a freshly mapped point
        completion time.
        """
        total = self.total_mass()
        if total <= MASS_TOLERANCE:
            return 0.0
        centred = self.times - self.mean()
        var = float(np.dot(centred ** 2, self.probs) / total)
        if var <= MASS_TOLERANCE:
            return 0.0
        third = float(np.dot(centred ** 3, self.probs) / total)
        return third / var ** 1.5

    def bounded_skewness(self) -> float:
        """The paper's bounded skewness ``s`` with -1 <= s <= 1 (Eq. 6).

        Values beyond +/-1 are "highly skewed" and clipped.  Cached on first
        use, like :meth:`mean`.
        """
        cached = self.__dict__.get("_bounded_skewness_cache")
        if cached is None:
            cached = min(1.0, max(-1.0, self.skewness()))
            self.__dict__["_bounded_skewness_cache"] = cached
        return cached

    def expected_value(self) -> float:
        """Alias of :meth:`mean`, matching E(C_ij) in the MMU urgency metric."""
        return self.mean()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalise(self) -> "DiscretePMF":
        """Rescale mass to one.  Raises for a zero-mass PMF."""
        total = self.total_mass()
        if total <= MASS_TOLERANCE:
            raise ValueError("cannot normalise a zero-mass PMF")
        return DiscretePMF._raw(self.probs / total, self.offset)

    def shift(self, delta: int) -> "DiscretePMF":
        """Translate every impulse by ``delta`` time units.

        Used to anchor a PET entry at the task start time on an idle
        machine (Section IV: "impulses in PET(i, j) are shifted by alpha").

        Parameters
        ----------
        delta:
            Signed translation in integer time units.

        Returns
        -------
        DiscretePMF
            Same probability vector at offset ``offset + delta`` (exact —
            no probability is moved between bins).
        """
        return DiscretePMF._raw(self.probs, self.offset + int(delta))

    def scale_mass(self, factor: float) -> "DiscretePMF":
        """Multiply all probability mass by ``factor`` in [0, 1]."""
        if factor < 0 or factor > 1 + 1e-12:
            raise ValueError("mass scale factor must lie in [0, 1]")
        return DiscretePMF._raw(self.probs * factor, self.offset)

    def compact(self) -> "DiscretePMF":
        """Strip leading/trailing zero bins (keeps at least one bin)."""
        return self._compact(self.probs.nonzero()[0])

    def _compact(self, nonzero: np.ndarray) -> "DiscretePMF":
        """:meth:`compact` given the indices of the non-zero bins."""
        if nonzero.size == 0:
            compacted = DiscretePMF._raw(np.array([0.0]), self.offset)
        elif nonzero[0] == 0 and nonzero[-1] == self.probs.size - 1:
            compacted = self
        else:
            lo = int(nonzero[0])
            compacted = DiscretePMF._raw(self.probs[lo : nonzero[-1] + 1], self.offset + lo)
        compacted.__dict__["_nonzero_cache"] = int(nonzero.size)
        return compacted

    def convolve_with(self, kernel: "DiscretePMF") -> "DiscretePMF":
        """Convolve with ``kernel`` by shift-and-add over its impulses.

        Parameters
        ----------
        kernel:
            Second operand; its non-zero impulses drive the accumulation, so
            the cost is ``O(nnz(kernel) * len(self))``.

        Returns
        -------
        DiscretePMF
            The distribution of the sum of the two independent variables, at
            offset ``self.offset + kernel.offset``.

        Notes
        -----
        This is the one-row case of :func:`shift_and_add`: the kernel's
        impulses accumulate in ascending time order, so a row of an
        ``(n, width)`` operand and a lone PMF produce bit-identical results.  Prefer
        :meth:`convolve` unless the caller needs that guarantee — it picks
        the cheaper operand order automatically.
        """
        if self.is_zero() or kernel.is_zero():
            return DiscretePMF._raw(np.array([0.0]), self.offset + kernel.offset)
        probs = shift_and_add(self.probs[None, :], kernel.probs)[0]
        return DiscretePMF._raw(probs, self.offset + kernel.offset)

    def convolve(self, other: "DiscretePMF") -> "DiscretePMF":
        """Distribution of the sum of two independent discrete variables.

        This is the queue composition operator of Eq. 2: the completion time
        of task *i* is the completion time of task *i-1* plus the execution
        time of task *i*.

        Parameters
        ----------
        other:
            Second operand (order does not matter mathematically).

        Returns
        -------
        DiscretePMF
            PMF of the sum, at offset ``self.offset + other.offset``.

        The operand order and method are :func:`convolve_probs`'s.
        """
        if self.is_zero() or other.is_zero():
            return DiscretePMF._raw(np.array([0.0]), self.offset + other.offset)
        probs = convolve_probs(
            self.probs, self.nonzero_count(), other.probs, other.nonzero_count()
        )
        return DiscretePMF._raw(probs, self.offset + other.offset)

    def truncate_before(self, time: int) -> "DiscretePMF":
        """Keep only mass strictly before ``time`` (without renormalising).

        This is the building block of the pending-drop convolution (Eq. 3):
        impulses of PCT(i-1, j) at or after the deadline of task *i* are
        excluded because task *i* would have been dropped by then.

        Parameters
        ----------
        time:
            Exclusive upper cut; mass at ``t >= time`` is discarded.

        Returns
        -------
        DiscretePMF
            Sub-normalised PMF holding only the mass strictly before
            ``time``; together with :meth:`truncate_from` it partitions the
            original mass exactly.
        """
        cut = int(time) - self.offset
        if cut <= 0:
            return DiscretePMF._raw(np.array([0.0]), self.offset)
        if cut >= self.probs.size:
            return self
        return DiscretePMF._raw(self.probs[:cut], self.offset)

    def truncate_from(self, time: int) -> "DiscretePMF":
        """Keep only mass at or after ``time`` (without renormalising).

        Parameters
        ----------
        time:
            Inclusive lower cut; mass at ``t < time`` is discarded.

        Returns
        -------
        DiscretePMF
            Sub-normalised complement of :meth:`truncate_before`.
        """
        cut = int(time) - self.offset
        if cut >= self.probs.size:
            return DiscretePMF._raw(np.array([0.0]), self.offset)
        if cut <= 0:
            return self
        return DiscretePMF._raw(self.probs[cut:], self.offset + cut)

    def collapse_tail_to(self, time: int) -> "DiscretePMF":
        """Aggregate all mass at or after ``time`` into a single impulse at ``time``.

        This is the evict-drop aggregation of Eq. 5: if the task is still in
        the system at its deadline it is dropped, so the machine becomes free
        exactly at the deadline.

        Parameters
        ----------
        time:
            Aggregation point (the task deadline in Eq. 5).

        Returns
        -------
        DiscretePMF
            PMF whose support ends at ``time``; total mass is preserved
            exactly (the tail is summed sequentially, so this commutes
            bit-for-bit with the batched reductions).
        """
        t = int(time)
        cut = t - self.offset
        total = self.total_mass()
        if total <= MASS_TOLERANCE:
            return DiscretePMF._raw(np.array([0.0]), self.offset)
        if cut <= 0:
            # All mass lies at or after ``time``: a single impulse at ``time``.
            return DiscretePMF._raw(np.array([total]), t)
        if cut >= self.probs.size:
            return self
        tail_mass = float(self.probs[cut:].cumsum()[-1])
        if tail_mass <= MASS_TOLERANCE:
            return DiscretePMF._raw(self.probs[: cut], self.offset)
        probs = np.zeros(cut + 1, dtype=np.float64)
        probs[:cut] = self.probs[:cut]
        probs[cut] = tail_mass
        return DiscretePMF._raw(probs, self.offset)

    def add(self, other: "DiscretePMF") -> "DiscretePMF":
        """Pointwise sum of two (sub-)PMFs over the union of their supports.

        Used to merge the truncated-convolution branch with the pass-through
        branch in Eqs. 4-5.  The result must not exceed unit mass.
        """
        lo = min(self.offset, other.offset)
        hi = max(self.max_time, other.max_time)
        probs = np.zeros(hi - lo + 1, dtype=np.float64)
        probs[self.offset - lo : self.offset - lo + self.probs.size] += self.probs
        probs[other.offset - lo : other.offset - lo + other.probs.size] += other.probs
        return DiscretePMF._raw(probs, lo)

    def aggregate(self, max_impulses: int) -> "DiscretePMF":
        """Approximate the PMF with at most ``max_impulses`` impulses.

        The paper notes the convolution overhead "can be mitigated ... by
        aggregating impulses" (Section IV).  Mass is re-binned into equal
        width groups; each group's mass is placed at its mass-weighted mean
        time (rounded), which preserves total mass and approximately the
        mean.
        """
        if max_impulses < 1:
            raise ValueError("max_impulses must be >= 1")
        return self._compact(self.probs.nonzero()[0])._rebin(max_impulses)

    def _rebin(self, max_impulses: int) -> "DiscretePMF":
        """:meth:`aggregate` of an already compacted PMF (non-zero count cached)."""
        if self.__dict__["_nonzero_cache"] <= max_impulses:
            return self
        # Vectorised equal-width re-binning: assign every bin to one of
        # ``max_impulses`` groups, place each group's mass at its
        # mass-weighted mean time (rounded to the grid).
        n = self.probs.size
        group = _rebin_groups(n, max_impulses)
        mass = np.bincount(group, weights=self.probs, minlength=max_impulses)
        weighted_rel = np.bincount(
            group, weights=self.probs * np.arange(n, dtype=np.float64), minlength=max_impulses
        )
        keep = mass > 0.0
        mass = mass[keep]
        # Groups ascend and a centre stays inside its group: the first is the lowest.
        centres = np.rint(weighted_rel[keep] / mass).astype(np.int64)
        lo = int(centres[0])
        # Like ``np.add.at``, ``bincount`` adds colliding groups in input order.
        probs = np.bincount(centres - lo, weights=mass)
        return DiscretePMF._raw(probs, self.offset + lo)

    # ------------------------------------------------------------------
    # Sampling / comparison
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None) -> int | np.ndarray:
        """Draw execution times from the (renormalised) PMF.

        The simulator's execution oracle uses this to decide how long a task
        actually runs on the machine it was mapped to.  Exactly the steps of
        ``rng.choice(self.times, size=size, p=self.probs / total)`` — same
        values, same generator state — with the CDF cached across draws.
        """
        cdf = self.__dict__.get("_sample_cdf_cache")
        if cdf is None:
            total = self.total_mass()
            if total <= MASS_TOLERANCE:
                raise ValueError("cannot sample from a zero-mass PMF")
            cdf = (self.probs / total).cumsum()
            cdf /= cdf[-1]
            self.__dict__["_sample_cdf_cache"] = cdf
        drawn = self.offset + cdf.searchsorted(rng.random(size), side="right")
        return int(drawn) if size is None else drawn

    def allclose(self, other: "DiscretePMF", *, atol: float = 1e-9) -> bool:
        """True when both PMFs place (numerically) identical mass everywhere."""
        a, b = self.compact(), other.compact()
        if a.is_zero() and b.is_zero():
            return True
        lo = min(a.offset, b.offset)
        hi = max(a.max_time, b.max_time)
        va = np.zeros(hi - lo + 1)
        vb = np.zeros(hi - lo + 1)
        va[a.offset - lo : a.offset - lo + a.probs.size] = a.probs
        vb[b.offset - lo : b.offset - lo + b.probs.size] = b.probs
        return bool(np.allclose(va, vb, atol=atol))

    def to_impulses(self) -> dict[int, float]:
        """Return the non-zero impulses as ``{time: probability}``."""
        times, probs = self.impulses()
        return dict(zip(times.tolist(), probs.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.support()
        return (
            f"DiscretePMF(support=[{lo}, {hi}], mass={self.total_mass():.4f}, "
            f"mean={self.mean():.2f})"
        )
