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

The convolution kernels (:func:`batched_shift`, :func:`batched_convolve`,
:func:`batched_convolve_ragged`) operate on this layout.  The scoring
kernel (:func:`packed_success_probability`) takes each machine's
availability as its own impulses instead — :func:`pack_impulses`, one
``(n_machines, K)`` row per machine — and returns one value per candidate
pair, ``(n_tasks, n_machines)`` like ``ScoreTable.robustness`` or one per
listed pair.  Execution-time CDFs are pre-gathered once per PET matrix into
a :class:`CDFTable` of shape ``(n_task_types, n_machines, max_cdf_len)``.

Exact-equivalence contract
--------------------------
Every batched kernel is **bit-identical** (``atol=0``) to its scalar
counterpart in :class:`~repro.core.pmf.DiscretePMF` and
:mod:`repro.heuristics.scoring`, regardless of how PMFs are grouped into
batches or how much zero padding the shared grid introduces.  Two rules make
this possible:

1. every reduction uses :func:`sequential_sum` — a strict left-to-right
   accumulation (``np.cumsum``) for which appending or interleaving exact
   zeros is a bit-level no-op, unlike NumPy's default pairwise ``sum``/BLAS
   ``dot`` whose grouping depends on array length;
2. convolution is a shift-and-add over the kernel operand's non-zero
   impulses in ascending time order — :func:`batched_convolve` and
   :meth:`DiscretePMF.convolve_with` are the ``n``-row and one-row cases of
   one implementation, :func:`repro.core.pmf.shift_and_add`.

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
>>> shifted = batch.shift(10)
>>> (shifted.offset, shifted.row(0).mean() - batch.row(0).mean())
(11, 10.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pmf import MASS_TOLERANCE, DiscretePMF, shift_and_add

__all__ = [
    "KERNEL_VERSION",
    "PMFBatch",
    "CDFTable",
    "sequential_sum",
    "batched_shift",
    "batched_convolve",
    "batched_convolve_ragged",
    "pack_impulses",
    "pack_batch",
    "packed_success_probability",
    "batched_success_probability",
    "batched_expected_completion",
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
    return np.take(np.cumsum(arr, axis=axis), -1, axis=axis)


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

    @classmethod
    def single(cls, pmf: DiscretePMF) -> "PMFBatch":
        """A one-row batch (the scalar wrappers use this internally)."""
        return cls.from_pmfs([pmf])

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

    # ------------------------------------------------------------------
    # Kernels (methods delegate to the module-level functions)
    # ------------------------------------------------------------------
    def shift(self, delta) -> "PMFBatch":
        """Translate the batch in time; see :func:`batched_shift`."""
        return batched_shift(self, delta)

    def convolve(self, kernel: DiscretePMF) -> "PMFBatch":
        """Convolve every row with ``kernel``; see :func:`batched_convolve`."""
        return batched_convolve(self, kernel)


@dataclass(frozen=True)
class CDFTable:
    """Padded execution-time CDFs for a grid of PMFs (one per (type, machine)).

    The success-probability kernel needs random access to
    ``P(execution <= budget)`` for every candidate pair.  This table gathers
    the per-entry cumulative vectors (``DiscretePMF.cumulative()``) into one
    dense array so a single fancy-index retrieves all of them.

    Parameters
    ----------
    cdfs:
        ``(n_task_types, n_machines, max_cdf_len)`` float64; entry
        ``cdfs[t, m, k]`` is ``P(execution of type t on machine m <=
        offsets[t, m] + k)``.  Rows shorter than ``max_cdf_len`` are
        zero-padded; the padding is never read because lookups clip the index
        to ``lengths[t, m] - 1``.
    offsets:
        ``(n_task_types, n_machines)`` int64; time of each entry's first bin.
    lengths:
        ``(n_task_types, n_machines)`` int64; valid prefix length of each
        CDF row.

    The scoring kernel reads the same data flat: :attr:`flat` is ``cdfs``
    raveled and row ``t * n_machines + m`` of :attr:`entries` is entry
    ``(t, m)``'s ``(offset, base, last)`` — its first bin's time, the index
    of its first CDF value in ``flat`` and its last valid index.
    """

    cdfs: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    entries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_types, n_machines, width = self.cdfs.shape
        bases = np.arange(n_types * n_machines, dtype=np.int64) * width
        entries = np.stack([self.offsets.ravel(), bases, self.lengths.ravel() - 1], axis=1)
        object.__setattr__(self, "flat", self.cdfs.ravel())
        object.__setattr__(self, "entries", entries.astype(np.int64))

    @classmethod
    def from_grid(cls, grid: Sequence[Sequence[DiscretePMF]]) -> "CDFTable":
        """Build the table from a 2-D (task type x machine) grid of PMFs."""
        rows = [list(row) for row in grid]
        if not rows or not rows[0]:
            raise ValueError("CDF grid must be non-empty")
        n_types, n_machines = len(rows), len(rows[0])
        width = max(pmf.probs.size for row in rows for pmf in row)
        cdfs = np.zeros((n_types, n_machines, width), dtype=np.float64)
        offsets = np.zeros((n_types, n_machines), dtype=np.int64)
        lengths = np.zeros((n_types, n_machines), dtype=np.int64)
        for t, row in enumerate(rows):
            if len(row) != n_machines:
                raise ValueError("CDF grid rows must all have the same length")
            for m, pmf in enumerate(row):
                cumulative = pmf.cumulative()
                cdfs[t, m, : cumulative.size] = cumulative
                offsets[t, m] = pmf.offset
                lengths[t, m] = cumulative.size
        return cls(cdfs, offsets, lengths)

    @classmethod
    def from_pmf(cls, pmf: DiscretePMF) -> "CDFTable":
        """A ``(1, 1, len)`` table for a single execution PMF."""
        return cls.from_grid([[pmf]])

    @property
    def n_task_types(self) -> int:
        return int(self.cdfs.shape[0])

    @property
    def n_machines(self) -> int:
        return int(self.cdfs.shape[1])


def batched_shift(batch: PMFBatch, delta) -> PMFBatch:
    """Translate every PMF in a batch, by a shared or per-row amount.

    Parameters
    ----------
    batch:
        The PMFs to shift.
    delta:
        Either a single int (every row moves together — a pure ``offset``
        change, no data movement) or an ``(n_pmfs,)`` integer array giving
        each row its own translation; rows are then re-aligned onto a new
        shared grid.

    Returns
    -------
    PMFBatch
        Shifted batch.  Exact: shifting only moves values, it never rounds.

    Examples
    --------
    >>> batch = PMFBatch.from_pmfs([DiscretePMF.point(0), DiscretePMF.point(1)])
    >>> batched_shift(batch, 5).offset
    5
    >>> staggered = batched_shift(batch, np.array([5, 9]))
    >>> [p.support() for p in staggered.to_pmfs()]
    [(5, 5), (10, 10)]
    """
    if np.isscalar(delta) or getattr(delta, "ndim", 1) == 0:
        return PMFBatch(batch.probs, batch.offset + int(delta))
    deltas = np.asarray(delta, dtype=np.int64)
    if deltas.shape != (batch.n_pmfs,):
        raise ValueError(
            f"expected scalar delta or shape ({batch.n_pmfs},), got {deltas.shape}"
        )
    base = int(deltas.min())
    spread = int(deltas.max()) - base
    out = np.zeros((batch.n_pmfs, batch.support + spread), dtype=np.float64)
    columns = np.arange(batch.support, dtype=np.int64)[None, :] + (deltas - base)[:, None]
    np.put_along_axis(out, columns, batch.probs, axis=1)
    return PMFBatch(out, batch.offset + base)


def batched_convolve(batch: PMFBatch, kernel: DiscretePMF) -> PMFBatch:
    """Convolve every PMF in a batch with one shared kernel.

    This is the queue-composition operator of Eq. 2 applied to ``n`` PMFs at
    once: a shift-and-add over the kernel's non-zero impulses in ascending
    time order (:func:`repro.core.pmf.shift_and_add`).  It is bit-identical
    to calling :meth:`DiscretePMF.convolve_with` — the one-row case of the
    same function — on each row, and the batch grid's zero padding only ever
    contributes exact-zero terms.

    Parameters
    ----------
    batch:
        ``(n_pmfs, support)`` batch of (typically dense) PMFs.
    kernel:
        The second operand, shared by every row; cheap when sparse (cost
        scales with its non-zero impulse count).

    Returns
    -------
    PMFBatch
        ``(n_pmfs, support + kernel_support - 1)`` batch at offset
        ``batch.offset + kernel.offset``.  A zero-mass kernel yields an
        all-zero batch, matching the scalar convention.

    Examples
    --------
    >>> batch = PMFBatch.from_pmfs([
    ...     DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25}),
    ...     DiscretePMF.point(2),
    ... ])
    >>> out = batched_convolve(batch, DiscretePMF.from_impulses({10: 0.5, 11: 0.5}))
    >>> out.offset
    11
    >>> [p.mean() for p in out.to_pmfs()]
    [12.5, 12.5]
    """
    offset = batch.offset + kernel.offset
    if not kernel.probs.any():
        return PMFBatch(np.zeros((batch.n_pmfs, 1), dtype=np.float64), offset)
    return PMFBatch(shift_and_add(batch.probs, kernel.probs), offset)


def batched_convolve_ragged(
    batch: PMFBatch, kernels: Sequence[DiscretePMF]
) -> PMFBatch:
    """Convolve every row of a batch with its *own* kernel, in lockstep.

    This is the ragged counterpart of :func:`batched_convolve`: ``n``
    independent convolutions (different kernels, different offsets, different
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

    over the impulses of machine ``j``'s availability, restricted to start
    times strictly before the deadline — exactly what
    :func:`repro.heuristics.scoring.fast_success_probability` computes for
    one pair.

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
    # Integer "time budget left for execution" of every (pair, impulse).
    budgets = (deadline - entry[..., 0])[..., None] - start_times
    clipped = np.minimum(budgets, entry[..., 2:3])
    usable = (start_times < deadline[..., None]) & (clipped >= 0)
    gathered = execution.flat.take(entry[..., 1:2] + np.maximum(clipped, 0))
    contributions = np.where(usable, gathered, 0.0) * start_probs
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
    ...     PMFBatch.single(DiscretePMF.point(10)),
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


def batched_expected_completion(
    availability_means: np.ndarray, execution_means: np.ndarray
) -> np.ndarray:
    """Expected completion time of every (task, machine) candidate pair.

    Linearity of expectation: ``E[completion_ij] = E[availability_j] +
    E[execution_ij]`` — no convolution needed, matching
    :func:`repro.heuristics.scoring.expected_completion` pair by pair
    (same operand order, hence bit-identical).

    Parameters
    ----------
    availability_means:
        ``(n_machines,)`` expected availability time per machine (``nan``
        for a zero-mass availability; propagates into the result).
    execution_means:
        ``(n_tasks, n_machines)`` mean execution time per candidate pair
        (rows of ``PETMatrix.mean_execution_times()`` selected per task).

    Returns
    -------
    np.ndarray
        ``(n_tasks, n_machines)`` expected completion times.

    Examples
    --------
    >>> batched_expected_completion(
    ...     np.array([10.0, 20.0]),
    ...     np.array([[2.0, 3.0], [4.0, 5.0]]),
    ... ).tolist()
    [[12.0, 23.0], [14.0, 25.0]]
    """
    availability_means = np.asarray(availability_means, dtype=np.float64)
    execution_means = np.asarray(execution_means, dtype=np.float64)
    return availability_means[None, :] + execution_means
