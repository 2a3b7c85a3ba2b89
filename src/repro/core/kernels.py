"""Execution backends for the PMF kernels the engine dispatches.

:mod:`repro.core.batch` defines the kernels every trial runs.  Three of them
are dispatched through a backend: the success-probability and
expected-completion scoring reductions behind every ``ScoreTable`` fill, and
the ragged per-row convolve (no caller in ``src/``; the perf ledger times
it).  This module
puts a :class:`KernelBackend` protocol in front of those three so they can
run on a second execution substrate:

``numpy`` (:class:`NumpyBackend`)
    The default and the semantic reference: it delegates to the
    :mod:`repro.core.batch` functions unchanged and is therefore
    bit-identical to the scalar path, pinned by the differential suite in
    ``tests/core/test_kernel_backends.py``.
``numba`` (:class:`NumbaBackend`)
    A jitted success-probability fill, the one loop NumPy cannot fuse.
    Lazily compiled on first use, gracefully *unavailable* (not broken) when
    numba is not installed.  The jitted loop reproduces the NumPy
    accumulation order exactly, so this path is bit-identical too.

Both backends are exact, so the backend never enters a sweep cache key: a
numba run reads and writes the entries of its numpy twin.

Selection order
---------------
:func:`resolve_backend` resolves, in priority order: an explicit name (from
``SimulatorConfig.kernel_backend`` / ``ExperimentConfig.kernel_backend`` /
``--kernel-backend``), the ``REPRO_KERNEL_BACKEND`` environment variable,
then the ``numpy`` default.  The simulator scopes the chosen backend around
its event loop with :class:`use_backend`; call sites read
:func:`active_backend` at kernel-dispatch time.
"""

from __future__ import annotations

import importlib.util
import os
import time
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .batch import (
    CDFTable,
    PMFBatch,
    batched_convolve_ragged,
    batched_expected_completion,
    packed_success_probability,
    success_probability_operands,
)
from .pmf import DiscretePMF

__all__ = [
    "KERNEL_BACKEND_NAMES",
    "KERNEL_BACKEND_ENV",
    "KernelBackendUnavailable",
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "InstrumentedBackend",
    "available_backends",
    "backend_available",
    "get_backend",
    "resolve_backend",
    "resolved_backend_name",
    "active_backend",
    "set_active_backend",
    "use_backend",
]

#: Registered backend names, in selection-priority-documentation order.
KERNEL_BACKEND_NAMES: tuple[str, ...] = ("numpy", "numba")

#: Environment variable consulted when no explicit backend is configured.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"


class KernelBackendUnavailable(RuntimeError):
    """A requested backend's optional dependency is not installed."""


@runtime_checkable
class KernelBackend(Protocol):
    """The kernel surface every backend implements.

    Semantics (shapes, offsets, zero-mass conventions) are defined by the
    reference functions in :mod:`repro.core.batch`; a backend may only vary
    *how* the arithmetic runs, never the bits of the result.
    """

    #: Registry name (``"numpy"`` / ``"numba"``).
    name: str

    def convolve_ragged(
        self, batch: PMFBatch, kernels: Sequence[DiscretePMF]
    ) -> PMFBatch:  # pragma: no cover
        ...

    def success_probability(
        self,
        start_times: np.ndarray,
        start_probs: np.ndarray,
        execution: CDFTable,
        type_indices: np.ndarray,
        deadlines: np.ndarray,
        machine_indices: np.ndarray | None = None,
        pairs: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:  # pragma: no cover
        ...

    def expected_completion(
        self, availability_means: np.ndarray, execution_means: np.ndarray
    ) -> np.ndarray:  # pragma: no cover
        ...


class NumpyBackend:
    """The reference backend: delegates to :mod:`repro.core.batch` verbatim."""

    name = "numpy"

    def convolve_ragged(
        self, batch: PMFBatch, kernels: Sequence[DiscretePMF]
    ) -> PMFBatch:
        return batched_convolve_ragged(batch, kernels)

    def success_probability(
        self,
        start_times: np.ndarray,
        start_probs: np.ndarray,
        execution: CDFTable,
        type_indices: np.ndarray,
        deadlines: np.ndarray,
        machine_indices: np.ndarray | None = None,
        pairs: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        return packed_success_probability(
            start_times, start_probs, execution, type_indices, deadlines, machine_indices, pairs
        )

    def expected_completion(
        self, availability_means: np.ndarray, execution_means: np.ndarray
    ) -> np.ndarray:
        return batched_expected_completion(availability_means, execution_means)


class NumbaBackend(NumpyBackend):
    """Jitted CPU backend for the success-probability scoring kernel.

    Only the pair loop of the scoring kernel is compiled; the ragged
    convolve and the expected-completion broadcast are the reference's.
    The jitted loop replays the reference accumulation order exactly
    (``fastmath`` off, strict left-to-right reductions, exact-zero terms
    skipped — bit-level no-ops), so results are bit-identical.

    Raises
    ------
    KernelBackendUnavailable
        On construction, when numba is not installed.
    """

    name = "numba"

    def __init__(self) -> None:
        from . import _numba_kernels

        if not _numba_kernels.NUMBA_AVAILABLE:
            raise KernelBackendUnavailable(
                "kernel backend 'numba' requires the optional numba package; "
                "install numba or select --kernel-backend numpy"
            )
        self._jit = _numba_kernels  # pragma: no cover - requires numba

    def success_probability(
        self,
        start_times: np.ndarray,
        start_probs: np.ndarray,
        execution: CDFTable,
        type_indices: np.ndarray,
        deadlines: np.ndarray,
        machine_indices: np.ndarray | None = None,
        pairs: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        operands = np.broadcast_arrays(
            *success_probability_operands(
                start_times.shape[0], type_indices, deadlines, machine_indices, pairs
            )
        )
        out = np.zeros(operands[0].size, dtype=np.float64)
        self._jit.success_probability_pairs(
            np.ascontiguousarray(start_times),
            np.ascontiguousarray(start_probs),
            execution.cdfs,
            execution.offsets,
            execution.lengths,
            *(np.ascontiguousarray(operand).reshape(-1) for operand in operands),
            out,
        )
        return out.reshape(operands[0].shape)


_BACKEND_CLASSES: dict[str, type] = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
}

_BACKEND_INSTANCES: dict[str, KernelBackend] = {}


def backend_available(name: str) -> bool:
    """Whether ``name`` can be instantiated in this environment (cheap)."""
    if name == "numba":
        return importlib.util.find_spec("numba") is not None
    return name in _BACKEND_CLASSES


def available_backends() -> tuple[str, ...]:
    """Registered backend names whose dependencies are installed."""
    return tuple(name for name in KERNEL_BACKEND_NAMES if backend_available(name))


def get_backend(name: str) -> KernelBackend:
    """The shared instance of one named backend (memoised per process)."""
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKEND_NAMES}"
        )
    instance = _BACKEND_INSTANCES.get(name)
    if instance is None:
        instance = _BACKEND_CLASSES[name]()
        _BACKEND_INSTANCES[name] = instance
    return instance


def resolved_backend_name(name: str | None = None) -> str:
    """Apply the selection order: explicit name > environment > ``numpy``."""
    if name is None:
        name = os.environ.get(KERNEL_BACKEND_ENV) or "numpy"
        source = f"${KERNEL_BACKEND_ENV}"
    else:
        source = "kernel_backend"
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown kernel backend {name!r} (from {source}); "
            f"expected one of {KERNEL_BACKEND_NAMES}"
        )
    return name


def resolve_backend(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend name/instance/``None`` to a live backend instance."""
    if spec is not None and not isinstance(spec, str):
        return spec
    return get_backend(resolved_backend_name(spec))


#: The process-wide active backend; ``None`` until first resolved so that
#: the environment variable is honoured however late it is set.
_ACTIVE: KernelBackend | None = None


def active_backend() -> KernelBackend:
    """The backend kernel call sites dispatch through right now."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve_backend(None)
    return _ACTIVE


def set_active_backend(spec: "str | KernelBackend | None") -> KernelBackend:
    """Set (and return) the process-wide active backend."""
    global _ACTIVE
    _ACTIVE = resolve_backend(spec)
    return _ACTIVE


class use_backend:
    """Scope the active backend, restoring the previous one on exit.

    ``use_backend(None)`` is a no-op scope (the current backend stays
    active) so callers can wrap unconditionally; the simulator does exactly
    that around its event loops.
    """

    __slots__ = ("_spec", "_previous")

    def __init__(self, spec: "str | KernelBackend | None" = None) -> None:
        self._spec = spec
        self._previous: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        if self._spec is None:
            return active_backend()
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = resolve_backend(self._spec)
        return _ACTIVE

    def __exit__(self, *exc_info) -> None:
        if self._spec is not None:
            global _ACTIVE
            _ACTIVE = self._previous


_KERNEL_OPS = ("convolve_ragged", "success_probability", "expected_completion")


def _timed_op(method: str):
    """One :class:`InstrumentedBackend` method: forward the call, record its span."""

    def op(self, *args, **kwargs):
        start = time.perf_counter_ns()
        result = getattr(self.inner, method)(*args, **kwargs)
        self.telemetry.add_span(self._metric[method], start, time.perf_counter_ns() - start)
        return result

    op.__name__ = method
    return op


class InstrumentedBackend:
    """A delegating backend wrapper timing every kernel call into telemetry.

    Each call becomes a ``kernel.<backend>.<method>`` span (metric names
    precomputed at construction; arguments forwarded as given, so the
    wrapper has every op's signature by construction).  The engine installs
    it around its resolved backend *only when telemetry is enabled* — a
    disabled run dispatches through the bare backend and executes
    bit-identical code (the never-perturbs contract in :mod:`repro.obs`).
    """

    __slots__ = ("inner", "telemetry", "name", "_metric")

    def __init__(self, inner: KernelBackend, telemetry) -> None:
        self.inner = inner
        self.telemetry = telemetry
        self.name = inner.name
        self._metric = {method: f"kernel.{inner.name}.{method}" for method in _KERNEL_OPS}

    convolve_ragged = _timed_op("convolve_ragged")
    success_probability = _timed_op("success_probability")
    expected_completion = _timed_op("expected_completion")
