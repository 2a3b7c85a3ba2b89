"""Pluggable execution backends for the batched PMF kernels.

:mod:`repro.core.batch` defines the hot kernels of every trial — shift,
convolve, the ragged per-row convolve behind chain propagation, the
strict-order :func:`~repro.core.batch.sequential_sum` reduction, and the
success-probability / expected-completion scoring reductions.  This module
puts a :class:`KernelBackend` protocol in front of them so the *same* kernel
surface can run on different execution substrates:

``numpy`` (:class:`NumpyBackend`)
    The default and the semantic reference: it delegates to the
    :mod:`repro.core.batch` functions unchanged and is therefore
    **bit-identical** (``atol=0``) to the scalar path, pinned by the
    differential suite in ``tests/core/test_kernel_backends.py``.
``numba`` (:class:`NumbaBackend`)
    A jitted CPU path for the loops NumPy cannot fuse — the ragged convolve
    of chain propagation and the success-probability grid fill.  Lazily
    compiled on first use, gracefully *unavailable* (not broken) when numba
    is not installed.  The jitted loops reproduce the NumPy accumulation
    order exactly, so this path is also pinned at ``atol=0``.
``array-api`` (:class:`ArrayApiBackend`)
    The portable path: kernel bodies written against the array-API standard
    namespace, so an accelerator namespace (CuPy, torch, or
    ``array_api_strict`` for conformance testing) can drop in.  Results are
    converted back to NumPy at the boundary and are pinned within an
    explicit per-backend tolerance (``rtol``/``atol`` attributes) rather
    than bit-identity — see ``docs/architecture.md`` for the policy.

Selection order
---------------
:func:`resolve_backend` resolves, in priority order: an explicit name (from
``SimulatorConfig.kernel_backend`` / ``ExperimentConfig.kernel_backend`` /
``--kernel-backend``), the ``REPRO_KERNEL_BACKEND`` environment variable,
then the ``numpy`` default.  The simulator scopes the chosen backend around
its event loop with :class:`use_backend`; call sites read
:func:`active_backend` at kernel-dispatch time.

Cache-tag semantics
-------------------
:func:`kernel_cache_tag` folds the backend into the sweep cache's engine
tag: the ``numpy`` reference keeps the historical bare integer
:data:`~repro.core.batch.KERNEL_VERSION` (pre-existing cache entries stay
valid), every other backend gets the composite ``"<version>+<backend>"``
string — so results produced by different backends can never collide in the
cache, and ``repro cache gc`` treats other-backend entries as
stale-by-version, never as corrupt.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import time
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .batch import (
    KERNEL_VERSION,
    CDFTable,
    PMFBatch,
    batched_convolve,
    batched_convolve_ragged,
    batched_expected_completion,
    batched_shift,
    packed_success_probability,
    ragged_kernel_coeffs,
    sequential_sum,
    success_probability_operands,
)
from .pmf import DiscretePMF

__all__ = [
    "KERNEL_BACKEND_NAMES",
    "KERNEL_BACKEND_ENV",
    "ARRAY_API_NAMESPACE_ENV",
    "KernelBackendUnavailable",
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "ArrayApiBackend",
    "InstrumentedBackend",
    "available_backends",
    "backend_available",
    "get_backend",
    "resolve_backend",
    "resolved_backend_name",
    "active_backend",
    "set_active_backend",
    "use_backend",
    "kernel_cache_tag",
    "parse_kernel_tag",
]

#: Registered backend names, in selection-priority-documentation order.
KERNEL_BACKEND_NAMES: tuple[str, ...] = ("numpy", "numba", "array-api")

#: Environment variable consulted when no explicit backend is configured.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Environment variable naming the array-API namespace module for the
#: ``array-api`` backend (e.g. ``array_api_strict``, ``cupy``, ``torch``);
#: defaults to ``array_api_strict`` when installed, else NumPy's native
#: array-API-compatible namespace.
ARRAY_API_NAMESPACE_ENV = "REPRO_ARRAY_API_NS"


class KernelBackendUnavailable(RuntimeError):
    """A requested backend's optional dependency is not installed."""


@runtime_checkable
class KernelBackend(Protocol):
    """The kernel surface every backend implements.

    Semantics (shapes, offsets, zero-mass conventions) are defined by the
    reference functions in :mod:`repro.core.batch`; a backend may only vary
    *how* the arithmetic runs, within its declared ``rtol``/``atol``
    envelope against the reference.
    """

    #: Registry name (``"numpy"`` / ``"numba"`` / ``"array-api"``).
    name: str
    #: Numerical-tolerance pins versus :class:`NumpyBackend`; the reference
    #: itself and the jitted CPU path declare ``0.0`` (bit-identity).
    rtol: float
    atol: float

    def shift(self, batch: PMFBatch, delta) -> PMFBatch:  # pragma: no cover
        ...

    def convolve(self, batch: PMFBatch, kernel: DiscretePMF) -> PMFBatch:  # pragma: no cover
        ...

    def convolve_ragged(
        self, batch: PMFBatch, kernels: Sequence[DiscretePMF]
    ) -> PMFBatch:  # pragma: no cover
        ...

    def sequential_sum(self, values: np.ndarray, axis: int = -1) -> np.ndarray:  # pragma: no cover
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
    rtol = 0.0
    atol = 0.0

    def shift(self, batch: PMFBatch, delta) -> PMFBatch:
        return batched_shift(batch, delta)

    def convolve(self, batch: PMFBatch, kernel: DiscretePMF) -> PMFBatch:
        return batched_convolve(batch, kernel)

    def convolve_ragged(
        self, batch: PMFBatch, kernels: Sequence[DiscretePMF]
    ) -> PMFBatch:
        return batched_convolve_ragged(batch, kernels)

    def sequential_sum(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        return sequential_sum(values, axis=axis)

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
    """Jitted CPU backend for the ragged convolve and the scoring kernel.

    Only the two loop-bound kernels are compiled; everything NumPy already
    fuses well (shift, shared-kernel convolve, the reductions) is the
    reference's.  The jitted loops replay the reference accumulation order
    exactly (``fastmath`` off, strict left-to-right reductions, exact-zero
    terms skipped — bit-level no-ops), so this backend pins ``atol=0``.

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

    def convolve_ragged(
        self, batch: PMFBatch, kernels: Sequence[DiscretePMF]
    ) -> PMFBatch:
        coeffs, k_lo = ragged_kernel_coeffs(batch, kernels)
        out = np.zeros(
            (batch.n_pmfs, batch.support + coeffs.shape[1] - 1), dtype=np.float64
        )
        self._jit.ragged_convolve(batch.probs, coeffs, out)
        return PMFBatch(out, batch.offset + k_lo)

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


class ArrayApiBackend:
    """Portable backend: kernel bodies on an array-API standard namespace.

    The namespace is resolved once at construction: an explicit module
    object, the ``REPRO_ARRAY_API_NS`` environment variable (module name,
    e.g. ``cupy`` or ``torch``), ``array_api_strict`` when installed, else
    NumPy's native array-API-compatible namespace.  Inputs are staged into
    the namespace per call and results converted back to NumPy float64 at
    the boundary — the goal of this path is *portability* (drop-in
    CuPy/torch), not host-side speed; device-resident batch residency is a
    named ROADMAP follow-on.

    Tolerance policy: results are pinned within ``rtol``/``atol`` below
    against :class:`NumpyBackend` (accelerator namespaces may fuse or
    reorder arithmetic); with the NumPy namespace the bodies happen to be
    exact, but only the documented envelope is contractual.
    """

    name = "array-api"
    rtol = 1e-9
    atol = 1e-12

    def __init__(self, namespace=None) -> None:
        self.xp = namespace if namespace is not None else _resolve_array_namespace()
        self.namespace_name = getattr(self.xp, "__name__", type(self.xp).__name__)

    # -- boundary conversions ------------------------------------------
    def _to_xp(self, array: np.ndarray):
        return self.xp.asarray(array)

    def _to_numpy(self, array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        try:
            return np.asarray(array, dtype=np.float64)
        except Exception:  # pragma: no cover - namespaces without __array__
            return np.asarray(np.from_dlpack(array), dtype=np.float64)

    def _cumsum_last(self, array):
        fn = getattr(self.xp, "cumulative_sum", None)
        if fn is not None:
            return fn(array, axis=-1)
        return self.xp.cumsum(array, -1)  # pragma: no cover - legacy namespaces

    # -- kernels -------------------------------------------------------
    def shift(self, batch: PMFBatch, delta) -> PMFBatch:
        if np.isscalar(delta) or getattr(delta, "ndim", 1) == 0:
            # A shared shift is a pure offset change — no array work at all.
            return PMFBatch(batch.probs, batch.offset + int(delta))
        deltas = np.asarray(delta, dtype=np.int64)
        if deltas.shape != (batch.n_pmfs,):
            raise ValueError(
                f"expected scalar delta or shape ({batch.n_pmfs},), got {deltas.shape}"
            )
        base = int(deltas.min())
        spread = int(deltas.max()) - base
        xp = self.xp
        probs = self._to_xp(batch.probs)
        out = xp.zeros((batch.n_pmfs, batch.support + spread), dtype=xp.float64)
        for i, offset in enumerate((deltas - base).tolist()):
            out[i, offset : offset + batch.support] = probs[i, :]
        return PMFBatch(self._to_numpy(out), batch.offset + base)

    def convolve(self, batch: PMFBatch, kernel: DiscretePMF) -> PMFBatch:
        offset = batch.offset + kernel.offset
        nonzero = np.flatnonzero(kernel.probs)
        if nonzero.size == 0:
            return PMFBatch(np.zeros((batch.n_pmfs, 1), dtype=np.float64), offset)
        coeffs = np.zeros((batch.n_pmfs, kernel.probs.size), dtype=np.float64)
        coeffs[:, :] = kernel.probs[None, :]
        return PMFBatch(
            self._shift_and_add(batch.probs, coeffs, nonzero), offset
        )

    def convolve_ragged(
        self, batch: PMFBatch, kernels: Sequence[DiscretePMF]
    ) -> PMFBatch:
        coeffs, k_lo = ragged_kernel_coeffs(batch, kernels)
        nonzero = np.flatnonzero(coeffs.any(axis=0))
        return PMFBatch(
            self._shift_and_add(batch.probs, coeffs, nonzero), batch.offset + k_lo
        )

    def _shift_and_add(
        self, probs_np: np.ndarray, coeffs_np: np.ndarray, nonzero: np.ndarray
    ) -> np.ndarray:
        """Shared shift-and-add loop over the non-zero kernel columns."""
        xp = self.xp
        width = probs_np.shape[1]
        probs = self._to_xp(probs_np)
        coeffs = self._to_xp(coeffs_np)
        out = xp.zeros(
            (probs_np.shape[0], width + coeffs_np.shape[1] - 1), dtype=xp.float64
        )
        for index in nonzero.tolist():
            out[:, index : index + width] = (
                out[:, index : index + width] + coeffs[:, index : index + 1] * probs
            )
        return self._to_numpy(out)

    def sequential_sum(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape[axis] == 0:
            shape = list(arr.shape)
            del shape[axis % arr.ndim]
            return np.zeros(shape, dtype=np.float64)
        # Reduce along the last axis in-namespace; moving the target axis to
        # the end first keeps the surviving axes in their original order.
        moved = np.moveaxis(arr, axis, -1)
        summed = self._cumsum_last(self._to_xp(moved))[..., -1]
        return self._to_numpy(summed)

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
        types, deadline, machines, slots = success_probability_operands(
            start_times.shape[0], type_indices, deadlines, machine_indices, pairs
        )
        xp = self.xp
        zero = xp.zeros((), dtype=xp.int64)
        # Small per-pair gathers stay on the host (NumPy): the standard has
        # no multi-axis advanced indexing, and these are one value per
        # result, not the hot (…, K) reduction below.
        entry = execution.entries[types * execution.n_machines + machines]
        base = self._to_xp(deadline - entry[..., 0])[..., None]
        times = self._to_xp(start_times[slots])
        clipped = xp.minimum(base - times, self._to_xp(entry[..., 2:3]))
        usable = (times < self._to_xp(deadline)[..., None]) & (clipped >= zero)
        gather = self._to_xp(entry[..., 1:2]) + xp.maximum(clipped, zero)
        # take() is restricted to 1-D indices in the standard: gather from
        # the flat CDF table and restore the result shape.
        flat_cdfs = self._to_xp(execution.flat)
        gathered = xp.reshape(xp.take(flat_cdfs, xp.reshape(gather, (-1,))), gather.shape)
        contributions = xp.where(
            usable, gathered, xp.zeros((), dtype=xp.float64)
        ) * self._to_xp(start_probs[slots])
        if contributions.shape[-1] == 0:
            return np.zeros(contributions.shape[:-1], dtype=np.float64)
        total = self._cumsum_last(contributions)[..., -1]
        return self._to_numpy(xp.minimum(xp.ones((), dtype=xp.float64), total))

    def expected_completion(
        self, availability_means: np.ndarray, execution_means: np.ndarray
    ) -> np.ndarray:
        means = self._to_xp(np.asarray(availability_means, dtype=np.float64))
        execution = self._to_xp(np.asarray(execution_means, dtype=np.float64))
        return self._to_numpy(means[None, :] + execution)


def _resolve_array_namespace():
    """Resolve the array-API namespace module for :class:`ArrayApiBackend`."""
    requested = os.environ.get(ARRAY_API_NAMESPACE_ENV)
    if requested:
        try:
            return importlib.import_module(requested.replace("-", "_"))
        except ImportError as exc:
            raise KernelBackendUnavailable(
                f"array-API namespace {requested!r} (from ${ARRAY_API_NAMESPACE_ENV}) "
                "is not importable"
            ) from exc
    try:
        return importlib.import_module("array_api_strict")
    except ImportError:
        return np


_BACKEND_CLASSES: dict[str, type] = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
    "array-api": ArrayApiBackend,
}

_BACKEND_INSTANCES: dict[str, KernelBackend] = {}


def backend_available(name: str) -> bool:
    """Whether ``name`` can be instantiated in this environment (cheap)."""
    if name not in _BACKEND_CLASSES:
        return False
    if name == "numba":
        return importlib.util.find_spec("numba") is not None
    return True  # numpy always; array-api falls back to NumPy's namespace


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


_KERNEL_OPS = (
    "shift",
    "convolve",
    "convolve_ragged",
    "sequential_sum",
    "success_probability",
    "expected_completion",
)


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

    Wrapping never changes cache identity: :attr:`name`/``rtol``/``atol``
    mirror the inner backend, and :func:`kernel_cache_tag` only ever sees
    backend *names*.
    """

    __slots__ = ("inner", "telemetry", "name", "rtol", "atol", "_metric")

    def __init__(self, inner: KernelBackend, telemetry) -> None:
        self.inner = inner
        self.telemetry = telemetry
        self.name = inner.name
        self.rtol = inner.rtol
        self.atol = inner.atol
        self._metric = {method: f"kernel.{inner.name}.{method}" for method in _KERNEL_OPS}

    shift = _timed_op("shift")
    convolve = _timed_op("convolve")
    convolve_ragged = _timed_op("convolve_ragged")
    sequential_sum = _timed_op("sequential_sum")
    success_probability = _timed_op("success_probability")
    expected_completion = _timed_op("expected_completion")


def kernel_cache_tag(
    backend: str | None = None, *, version: int | None = None
) -> int | str:
    """The engine tag folded into sweep cache keys.

    The ``numpy`` reference keeps the historical bare integer
    :data:`~repro.core.batch.KERNEL_VERSION` so every pre-existing cache
    entry stays addressable; any other backend yields the composite
    ``"<version>+<backend>"`` string, which can never collide with the
    reference (or another backend) at the same kernel version.
    """
    name = resolved_backend_name(backend)
    tag_version = KERNEL_VERSION if version is None else version
    if name == "numpy":
        return tag_version
    return f"{tag_version}+{name}"


def parse_kernel_tag(tag: str | int) -> tuple[str, str]:
    """Split an engine tag into ``(version, backend)`` parts.

    Bare (pre-composite) tags — plain integers or strings without a ``+`` —
    denote the ``numpy`` reference backend.
    """
    text = str(tag)
    version, sep, backend = text.partition("+")
    return version, (backend if sep else "numpy")
