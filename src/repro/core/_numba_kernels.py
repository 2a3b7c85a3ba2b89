"""Jitted inner loop behind :class:`repro.core.kernels.NumbaBackend`.

Numba is an *optional* accelerator dependency: the default install never
imports this module's compiled function, and the import guard below keeps
``import repro`` working (and the ``numba`` backend cleanly reporting itself
unavailable) on a NumPy-only interpreter.

Bit-exactness
-------------
:func:`success_probability_pairs` accumulates each pair's impulses strictly
left to right (the ``np.cumsum`` order of
:func:`repro.core.batch.sequential_sum`) and skips exact-zero masses, which
are bit-level no-ops on the non-negative accumulator.  It contains no
floating-point reduction LLVM may legally reorder (``fastmath`` stays off),
so the compiled results are bit-identical (``atol=0``) to
:class:`~repro.core.kernels.NumpyBackend` — the differential suite in
``tests/core/test_kernel_backends.py`` pins exactly that.

The loop body is a plain Python function, jitted only where numba is
installed, so tier-1 runs it as it stands against the NumPy reference
(``tests/core/test_kernel_backends.py``) on an interpreter without numba.
Compilation is lazy: the first call through the backend pays the jit cost
(a few seconds), subsequent calls run the cached machine code.
"""

from __future__ import annotations

try:  # pragma: no cover - absence branch is what the default install runs
    import numba
except ImportError:
    numba = None

NUMBA_AVAILABLE = numba is not None


def success_probability_pairs(
    start_times,
    start_probs,
    cdfs,
    cdf_offsets,
    cdf_lengths,
    types,
    deadlines,
    machines,
    slots,
    out,
):
    """Fill ``out[p]`` with the success probability of candidate pair ``p``.

    Mirrors :func:`repro.core.batch.packed_success_probability` pair by
    pair (a grid is its pairs, raveled): pair ``p`` is a task of type
    ``types[p]`` due at ``deadlines[p]`` on PET column ``machines[p]``
    behind the packed availability row ``slots[p]``, whose impulses are
    summed strictly left to right, restricted to start times before the
    deadline with a non-negative clipped CDF budget.
    """
    n_starts = start_times.shape[1]
    for p in range(out.shape[0]):
        deadline = deadlines[p]
        task_type = types[p]
        machine = machines[p]
        slot = slots[p]
        offset = cdf_offsets[task_type, machine]
        last = cdf_lengths[task_type, machine] - 1
        acc = 0.0
        for u in range(n_starts):
            start = start_times[slot, u]
            if start >= deadline:
                continue
            mass = start_probs[slot, u]
            if mass == 0.0:
                continue
            budget = deadline - start - offset
            if budget < 0:
                continue
            if budget > last:
                budget = last
            acc += cdfs[task_type, machine, budget] * mass
        if acc > 1.0:
            acc = 1.0
        out[p] = acc


if NUMBA_AVAILABLE:  # pragma: no cover - compiled code, never traced
    success_probability_pairs = numba.njit(cache=True, nogil=True)(success_probability_pairs)
