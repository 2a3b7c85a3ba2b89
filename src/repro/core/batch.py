"""Vectorised PMF algebra: whole *sets* of PMFs as single NumPy arrays.

:mod:`repro.core.pmf` gives every probability mass function its own
:class:`~repro.core.pmf.DiscretePMF` object, which is the right granularity
for the completion-time chains of Section IV (each step feeds the next).  A
*mapping event*, however, scores every (batch task, machine) candidate pair
at once — a hot path that used to fan out into per-pair Python calls.  This
module is the batched engine behind that path.

Representation
--------------
A :class:`PMFBatch` stores ``n`` PMFs as one padded 2-D array:

* ``probs`` has shape ``(n_pmfs, support)``: row ``i`` holds the probability
  vector of PMF ``i``,
* ``offset`` is the integer time of column ``0``, *shared by every row* —
  rows whose support starts later are left-padded with zeros, rows whose
  support ends earlier are right-padded ("aligned offsets").

The ragged convolution kernel (:func:`batched_convolve_ragged`) operates on
this layout.  The scoring
kernel (:func:`packed_success_probability`) takes each machine's
availability as its own impulses instead — :func:`pack_impulses`, one
``(n_machines, K)`` row per machine — and returns one value per candidate
pair, ``(n_tasks, n_machines)`` like ``ScoreTable.robustness`` or one per
listed pair.  Execution-time CDFs are gathered once per PET matrix into
a :class:`CDFTable`, every (type, machine) entry's CDF back to back in one
flat array.

Exact-equivalence contract
--------------------------
Every batched kernel is **bit-identical** (``atol=0``) to its scalar
counterpart in :class:`~repro.core.pmf.DiscretePMF` and to the paper's
equations summed one impulse at a time (the reference model in
``tests/reference/pmf.py``), regardless of how PMFs are grouped into
batches or how much zero padding the shared grid introduces.  Two rules make
this possible:

1. every reduction uses :func:`sequential_sum` — a strict left-to-right
   accumulation (``np.cumsum``) for which appending or interleaving exact
   zeros is a bit-level no-op, unlike NumPy's default pairwise ``sum``/BLAS
   ``dot`` whose grouping depends on array length;
2. convolution is a shift-and-add over the kernel operand's non-zero
   impulses in ascending time order — :meth:`DiscretePMF.convolve_with`
   (:func:`repro.core.pmf.shift_and_add`) and :func:`batched_convolve_ragged`
   both accumulate each row's own kernel impulses in that order.

``tests/core/test_batch.py`` enforces the contract with zero-tolerance
comparisons; treat any relaxation of those tests as an API break.

Examples
--------
>>> import numpy as np
>>> from repro.core.pmf import DiscretePMF
>>> from repro.core.batch import PMFBatch
>>> batch = PMFBatch.from_pmfs([
...     DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25}),
...     DiscretePMF.from_impulses({3: 0.50, 4: 0.50}),
... ])
>>> batch.probs.shape  # two PMFs on the shared grid [1, 4]
(2, 4)
>>> batch.offset
1
>>> [round(m, 2) for m in batch.total_mass().tolist()]
[1.0, 1.0]
>>> [round(m, 2) for m in batch.means().tolist()]
[2.0, 3.5]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pmf import MASS_TOLERANCE, DiscretePMF

__all__ = [
    "KERNEL_VERSION",
    "PMFBatch",
    "CDFTable",
    "sequential_sum",
    "batched_convolve_ragged",
    "pack_impulses",
    "pack_batch",
    "packed_success_probability",
    "batched_success_probability",
]

#: Version tag of the scoring/chain kernel semantics.  Bump this whenever a
#: change to the kernels (or to the scalar ops they mirror) could alter the
#: *values* they produce — consumers that persist derived results across
#: processes (e.g. the ``repro.sweep`` result cache) fold the tag into their
#: content addresses so stale artefacts are never looked up again.
KERNEL_VERSION = 4


def sequential_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum ``values`` along ``axis`` with strict left-to-right accumulation.

    This is the reduction primitive behind the batched kernels'
    bit-exactness guarantee.  ``np.cumsum`` must produce every prefix sum, so
    its accumulation order is fixed (``acc[k] = acc[k-1] + values[k]``); a
    zero term therefore leaves the running sum bit-for-bit unchanged, which
    makes the result independent of any zero padding the shared batch grid
    introduces.  NumPy's default ``np.sum`` (pairwise) and BLAS ``dot`` do
    not have this property: their grouping depends on the array length.

    Parameters
    ----------
    values:
        Array of any shape; summed along ``axis``.
    axis:
        Axis to reduce (default: last).

    Returns
    -------
    np.ndarray
        ``values.sum(axis)`` computed sequentially; the reduced axis is
        removed.  An empty axis yields exact zeros.

    Examples
    --------
    >>> import numpy as np
    >>> sequential_sum(np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 0.25]])).tolist()
    [6.0, 0.75]
    >>> sequential_sum(np.zeros((2, 0))).tolist()
    [0.0, 0.0]
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape[axis] == 0:
        shape = list(arr.shape)
        del shape[axis % arr.ndim]
        return np.zeros(shape, dtype=np.float64)
    return arr.cumsum(axis=axis).take(-1, axis=axis)


@dataclass(frozen=True)
class PMFBatch:
    """A set of discrete PMFs on one shared, padded integer time grid.

    Parameters
    ----------
    probs:
        ``(n_pmfs, support)`` float64 array; ``probs[i, k]`` is the mass PMF
        ``i`` places at time ``offset + k``.  Rows may be sub-normalised or
        all-zero (a zero-mass PMF), exactly like the scalar representation.
    offset:
        Integer time of column ``0``, shared by every row.

    Notes
    -----
    Instances are immutable views in the same spirit as
    :class:`~repro.core.pmf.DiscretePMF`; every kernel returns a new batch.
    Build one with :meth:`from_pmfs` (which computes the aligned grid) rather
    than by hand unless the rows are already aligned.
    """

    probs: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"PMFBatch probs must be 2-D, got shape {arr.shape}")
        if arr.shape[1] == 0:
            raise ValueError("PMFBatch support must be non-empty")
        if np.any(~np.isfinite(arr)):
            raise ValueError("PMFBatch probabilities must be finite")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "offset", int(self.offset))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pmfs(cls, pmfs: Sequence[DiscretePMF]) -> "PMFBatch":
        """Stack scalar PMFs onto their common (union-support) grid.

        Parameters
        ----------
        pmfs:
            One or more :class:`DiscretePMF` instances; offsets may differ
            arbitrarily (including negative times).

        Returns
        -------
        PMFBatch
            Batch whose ``offset`` is the smallest PMF offset and whose
            ``support`` spans every input's support; each row is the input
            PMF's probability vector placed at its own offset, zero-padded
            elsewhere.

        Examples
        --------
        >>> batch = PMFBatch.from_pmfs([DiscretePMF.point(5), DiscretePMF.point(7)])
        >>> batch.offset, batch.probs.shape
        (5, (2, 3))
        >>> batch.probs.tolist()
        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        """
        pmfs = list(pmfs)
        if not pmfs:
            raise ValueError("at least one PMF is required")
        lo = min(p.offset for p in pmfs)
        hi = max(p.max_time for p in pmfs)
        probs = np.zeros((len(pmfs), hi - lo + 1), dtype=np.float64)
        for i, pmf in enumerate(pmfs):
            start = pmf.offset - lo
            probs[i, start : start + pmf.probs.size] = pmf.probs
        return cls(probs, lo)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_pmfs(self) -> int:
        """Number of PMFs (rows) in the batch."""
        return int(self.probs.shape[0])

    @property
    def support(self) -> int:
        """Width of the shared padded time grid (columns)."""
        return int(self.probs.shape[1])

    @property
    def times(self) -> np.ndarray:
        """``(support,)`` int64 array: the time of every column."""
        return np.arange(self.offset, self.offset + self.support, dtype=np.int64)

    def row(self, index: int) -> DiscretePMF:
        """The ``index``-th PMF as a scalar :class:`DiscretePMF` (padded grid)."""
        return DiscretePMF._raw(self.probs[index].copy(), self.offset)

    def to_pmfs(self) -> list[DiscretePMF]:
        """All rows as (compacted) scalar PMFs."""
        return [self.row(i).compact() for i in range(self.n_pmfs)]

    def total_mass(self) -> np.ndarray:
        """``(n_pmfs,)`` total probability mass per row.

        Bit-identical to calling :meth:`DiscretePMF.total_mass` on each row
        (sequential accumulation; padding zeros are no-ops).
        """
        return sequential_sum(self.probs, axis=-1)

    def means(self) -> np.ndarray:
        """``(n_pmfs,)`` expected value per row (``nan`` for zero-mass rows).

        Bit-identical to calling :meth:`DiscretePMF.mean` on each row.
        """
        weighted = sequential_sum(self.probs * self.times[None, :], axis=-1)
        total = self.total_mass()
        out = np.full(self.n_pmfs, np.nan, dtype=np.float64)
        ok = total > MASS_TOLERANCE
        out[ok] = weighted[ok] / total[ok]
        return out


@dataclass(frozen=True, eq=False)
class CDFTable:
    """Execution-time CDFs of a grid of PMFs (one per (type, machine)), back to back.

    The success-probability kernel needs random access to
    ``P(execution <= budget)`` for every candidate pair.  This table stores
    every entry's cumulative vector (``DiscretePMF.cumulative()``) in one
    flat array so a single ``take`` retrieves all of them.

    Eq. 1 counts a start ``s`` only when ``s < deadline`` and the budget
    ``b = deadline - offset - s`` is not negative, i.e. when ``b >= lower =
    max(0, 1 - offset)``; then it reads ``cdf[min(b, last)]``, where
    ``last`` is the index of the entry's last CDF bin.  Entry ``(t, m)``
    (number ``e = t * n_machines + m``) therefore stores ``span = max(last,
    lower) - lower + 1`` values, ``cdf[min(b, last)]`` for ``b`` from
    ``lower`` on, behind one leading ``0.0`` in :attr:`flat`, and the
    entries follow one another with no padding: entry ``e``'s segment
    starts at ``first``, the sum of ``span + 1`` over the entries before
    it.  Row ``e`` of :attr:`entries` is ``(shift, first, end)``: the
    lookup of budget ``b`` is ``flat[clip(deadline - shift - s, first,
    end)]``.  ``first`` is the index of the leading zero, which every
    budget below ``lower`` clamps to, and ``end`` the index of
    ``cdf[last]``, which every budget past the CDF clamps to.

    An entry with ``lower == 0`` (every offset ``>= 1``) stores its whole
    CDF, so its PMF's :meth:`~repro.core.pmf.DiscretePMF.cumulative` cache
    is re-pointed at that read-only segment rather than kept twice.

    Attributes
    ----------
    flat:
        ``(sum(span + 1),)`` read-only float64: every entry's segment, back
        to back.
    entries:
        ``(n_task_types * n_machines, 3)`` int64 ``(shift, first, end)``.
    n_task_types, n_machines:
        Shape of the grid the table was built from.
    """

    flat: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)
    n_task_types: int
    n_machines: int

    @classmethod
    def from_grid(cls, grid: Sequence[Sequence[DiscretePMF]]) -> "CDFTable":
        """Build the table from a 2-D (task type x machine) grid of PMFs."""
        rows = [list(row) for row in grid]
        if not rows or not rows[0]:
            raise ValueError("CDF grid must be non-empty")
        n_types, n_machines = len(rows), len(rows[0])
        if any(len(row) != n_machines for row in rows):
            raise ValueError("CDF grid rows must all have the same length")
        pmfs = [pmf for row in rows for pmf in row]
        offsets = np.array([pmf.offset for pmf in pmfs], dtype=np.int64)
        lasts = np.array([pmf.probs.size - 1 for pmf in pmfs], dtype=np.int64)
        lowers = np.maximum(0, 1 - offsets)
        # Budgets lower..max(last, lower), each read as cdf[min(b, last)].
        spans = np.maximum(lasts, lowers) - lowers + 1
        sizes = spans + 1  # the leading zero, then the span
        first = np.cumsum(sizes) - sizes
        flat = np.zeros(int(sizes.sum()), dtype=np.float64)
        for pmf, lower, last, start in zip(pmfs, lowers.tolist(), lasts.tolist(), first.tolist()):
            # cdf[lower:], or just cdf[last] when every budget is past the CDF.
            segment = pmf.cumulative()[min(lower, last) :]
            stored = flat[start + 1 : start + 1 + segment.size]
            stored[:] = segment
            if lower == 0:
                # The segment is the whole CDF: the PMF's cache reads it
                # here instead of keeping a copy of its own.
                stored.flags.writeable = False
                pmf.__dict__["_cumulative_cache"] = stored
        flat.flags.writeable = False
        entries = np.stack([offsets + lowers - first - 1, first, first + spans], axis=1)
        return cls(flat, entries, n_types, n_machines)

    @classmethod
    def from_pmf(cls, pmf: DiscretePMF) -> "CDFTable":
        """A one-entry table for a single execution PMF."""
        return cls.from_grid([[pmf]])


def batched_convolve_ragged(
    batch: PMFBatch, kernels: Sequence[DiscretePMF]
) -> PMFBatch:
    """Convolve every row of a batch with its *own* kernel, in lockstep.

    ``n`` independent convolutions (different kernels, different offsets, different
    supports) advance together through one shared shift-and-add loop over
    the *union* of the kernels' non-zero impulse columns — e.g. several
    machines' completion-time chains advanced one queue position at a time.

    Parameters
    ----------
    batch:
        ``(n_pmfs, support)`` batch; row ``i`` is the dense operand of
        convolution ``i``.
    kernels:
        One kernel per row.  Offsets and supports may differ arbitrarily;
        cost scales with the union of their non-zero impulse columns.

    Returns
    -------
    PMFBatch
        Batch at offset ``batch.offset + min(kernel offsets)`` whose row
        ``i`` equals ``batch.row(i).convolve_with(kernels[i])`` placed on the
        shared grid.  **Bit-identical** up to zero padding: each row only
        ever accumulates its own kernel's impulses in ascending time order
        (columns where a row's kernel carries no mass contribute exact-zero
        terms, which are bit-level no-ops), so
        ``out.row(i).compact()`` equals the scalar result's ``compact()``
        bit for bit.  A zero-mass kernel yields an all-zero row.

    Examples
    --------
    >>> batch = PMFBatch.from_pmfs([
    ...     DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25}),
    ...     DiscretePMF.point(2),
    ... ])
    >>> out = batched_convolve_ragged(
    ...     batch,
    ...     [DiscretePMF.from_impulses({10: 0.5, 11: 0.5}), DiscretePMF.point(4)],
    ... )
    >>> out.offset
    5
    >>> [p.mean() for p in out.to_pmfs()]
    [12.5, 6.0]
    """
    kernels = list(kernels)
    if len(kernels) != batch.n_pmfs:
        raise ValueError(
            f"expected one kernel per row, got {len(kernels)} kernels "
            f"for {batch.n_pmfs} rows"
        )
    k_lo = min(k.offset for k in kernels)
    k_hi = max(k.max_time for k in kernels)
    coeffs = np.zeros((batch.n_pmfs, k_hi - k_lo + 1), dtype=np.float64)
    for i, kernel in enumerate(kernels):
        start = kernel.offset - k_lo
        coeffs[i, start : start + kernel.probs.size] = kernel.probs
    width = batch.support
    out = np.zeros((batch.n_pmfs, width + coeffs.shape[1] - 1), dtype=np.float64)
    for index in np.flatnonzero(coeffs.any(axis=0)).tolist():
        out[:, index : index + width] += coeffs[:, index : index + 1] * batch.probs
    return PMFBatch(out, batch.offset + k_lo)


def pack_impulses(pmfs: Sequence[DiscretePMF]) -> tuple[np.ndarray, np.ndarray]:
    """The scoring operand: every PMF's own impulses, one packed row each.

    Returns ``(start_times, start_probs)``, both ``(n_pmfs, K)``: row ``j``
    holds :meth:`DiscretePMF.impulses` of ``pmfs[j]``, zero-padded on the
    right to the widest row.  A padded entry has probability ``0.0``, so it
    adds an exact ``+0.0`` to a :func:`sequential_sum` — as the columns of
    *other* machines did on a shared grid, which is why a score does not
    depend on how its operand was laid out.
    """
    impulses = [pmf.impulses() for pmf in pmfs]
    width = max(times.size for times, _ in impulses)
    start_times = np.zeros((len(impulses), width), dtype=np.int64)
    start_probs = np.zeros((len(impulses), width), dtype=np.float64)
    for row, (times, probs) in enumerate(impulses):
        start_times[row, : times.size] = times
        start_probs[row, : times.size] = probs
    return start_times, start_probs


def pack_batch(batch: PMFBatch) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pack_impulses` of the rows of a padded batch."""
    nonzero = batch.probs != 0.0
    # A stable sort on "is zero" lists each row's non-zero columns first, in
    # ascending order; what follows them within the widest row's count is zero.
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, : int(nonzero.sum(axis=1).max())]
    return batch.offset + order, np.take_along_axis(batch.probs, order, axis=1)


def packed_success_probability(
    start_times: np.ndarray,
    start_probs: np.ndarray,
    execution: CDFTable,
    type_indices: np.ndarray,
    deadlines: np.ndarray,
    machine_indices: np.ndarray | None = None,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Deadline-success probability of (task, machine) candidate pairs.

    For task ``i`` and machine ``j`` this is Eq. 1 evaluated on the
    (availability x execution) convolution without materialising it::

        P_ij = min(1, sum_t  P(machine j free at t) * P(exec_ij <= d_i - t))

    over the impulses of machine ``j``'s availability, in ascending time,
    restricted to start times strictly before the deadline.

    Parameters
    ----------
    start_times, start_probs:
        ``(n_slots, K)`` packed availabilities (:func:`pack_impulses`), one
        row per *candidate machine* in the order of ``machine_indices``.
    execution:
        CDF table of the PET matrix (see :meth:`PETMatrix.cdf_table`).
    type_indices, deadlines:
        ``(n_tasks,)`` int arrays: task type (row of ``execution``) and
        absolute deadline per task.
    machine_indices:
        ``(n_slots,)`` column of ``execution`` behind each operand row;
        defaults to ``0..n_slots-1``.
    pairs:
        ``None`` scores the whole grid; ``(task_rows, slots)``, two equal
        length int arrays, exactly those pairs — what a fill that carries
        part of its grid over from the previous event still owes.

    Returns
    -------
    np.ndarray
        ``(n_tasks, n_slots)`` success probabilities in ``[0, 1]``, or
        ``(n_pairs,)`` for a pair list.  Bit-identical to the scalar
        per-pair computation however the pairs are grouped into calls: the
        reduction is a :func:`sequential_sum` over the machine's own
        impulses in ascending time, and padding adds exact zeros.
    """
    n_slots = start_times.shape[0]
    type_indices = np.asarray(type_indices, dtype=np.int64)
    deadlines = np.asarray(deadlines, dtype=np.int64)
    if machine_indices is None:
        machine_indices = np.arange(n_slots, dtype=np.int64)
    else:
        machine_indices = np.asarray(machine_indices, dtype=np.int64)
    if machine_indices.size != n_slots:
        raise ValueError(
            "availability must have one row per entry of machine_indices "
            f"(got {n_slots} rows for {machine_indices.size} machines)"
        )
    # Each result's task type and deadline and its PET column, broadcast to
    # the result shape: (n_tasks, n_slots) for the grid, (n_pairs,) for a list.
    if pairs is None:  # the grid broadcasts the (n_slots, K) operand as it is
        types, deadline = type_indices[:, None], deadlines[:, None]
        machines = machine_indices[None, :]
    else:  # (n_pairs, K)
        rows, slots = pairs
        types, deadline, machines = type_indices[rows], deadlines[rows], machine_indices[slots]
        start_times, start_probs = start_times[slots], start_probs[slots]
    entry = execution.entries[types * execution.n_machines + machines]
    # Every (pair, impulse)'s CDF lookup (see :class:`CDFTable`): a start
    # that cannot succeed reads the entry's leading 0.0, and 0.0 * p is the
    # exact +0.0 the sum skips.
    lookup = (deadline - entry[..., 0])[..., None] - start_times
    np.maximum(lookup, entry[..., 1:2], out=lookup)
    np.minimum(lookup, entry[..., 2:3], out=lookup)
    contributions = execution.flat.take(lookup) * start_probs
    return np.minimum(1.0, sequential_sum(contributions, axis=-1))


def batched_success_probability(
    availability: PMFBatch,
    execution: CDFTable,
    type_indices: np.ndarray,
    deadlines: np.ndarray,
    machine_indices: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`packed_success_probability` of a padded availability batch.

    One row of ``availability`` per candidate machine, in the order of
    ``machine_indices``; returns the ``(n_tasks, n_machines)`` grid.

    Examples
    --------
    >>> exec_pmf = DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25})
    >>> grid = batched_success_probability(
    ...     PMFBatch.from_pmfs([DiscretePMF.point(10)]),
    ...     CDFTable.from_pmf(exec_pmf),
    ...     np.array([0, 0]),
    ...     np.array([13, 12]),
    ... )
    >>> grid.shape
    (2, 1)
    >>> [round(v, 2) for v in grid[:, 0].tolist()]
    [1.0, 0.75]
    """
    return packed_success_probability(
        *pack_batch(availability), execution, type_indices, deadlines, machine_indices
    )

