"""``get_backend("numpy")``: the name the perf ledger's micro-drivers time.

The engine's kernels are :mod:`repro.core.batch`, called directly; nothing
in ``src/`` imports this module.  ``bench/micro.py`` still times
``get_backend("numpy").convolve_ragged``, which forwards to
:func:`~repro.core.batch.batched_convolve_ragged`.
"""

from __future__ import annotations

from types import SimpleNamespace

from .batch import batched_convolve_ragged

__all__ = ["get_backend"]

_NUMPY = SimpleNamespace(name="numpy", convolve_ragged=batched_convolve_ragged)


def get_backend(name: str) -> SimpleNamespace:
    """The NumPy kernels: the only ones there are."""
    if name != "numpy":
        raise ValueError(f"unknown kernel backend {name!r}; the only one is 'numpy'")
    return _NUMPY
