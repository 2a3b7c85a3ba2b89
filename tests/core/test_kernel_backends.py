"""Differential suite for the kernel backends.

Every installed backend is driven through random ``PMFBatch`` inputs and
compared at ``atol=0`` against two references: the **scalar** path
(:class:`DiscretePMF` ops / :mod:`repro.heuristics.scoring`) and the
:mod:`repro.core.batch` functions the NumPy backend delegates to.  The
batch ops no backend dispatches (shift, convolve, sequential sum) meet the
scalar path on the same random inputs.  The numba backend's loop body runs
here as plain Python where numba is absent.

A full seeded 660-task reference-trace trial per installed backend closes
the loop at the whole-simulation level.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    CDFTable,
    PMFBatch,
    batched_convolve,
    batched_convolve_ragged,
    batched_shift,
    batched_success_probability,
    pack_batch,
    pack_impulses,
    sequential_sum,
)
from repro.core import _numba_kernels
from repro.core.kernels import (
    KERNEL_BACKEND_ENV,
    InstrumentedBackend,
    KernelBackend,
    KernelBackendUnavailable,
    NumbaBackend,
    NumpyBackend,
    active_backend,
    available_backends,
    backend_available,
    get_backend,
    resolve_backend,
    resolved_backend_name,
    set_active_backend,
    use_backend,
)
from repro.core.pmf import DiscretePMF
from repro.heuristics.registry import make_heuristic
from repro.heuristics.scoring import expected_completion, fast_success_probability
from repro.obs import Telemetry
from repro.pet.builders import build_transcoding_pet
from repro.simulator.engine import HCSimulator, SimulatorConfig, simulate
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)

INSTALLED = available_backends()


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def pmf_strategy(draw, min_time=-8, max_time=50, allow_zero_mass=True):
    n = draw(st.integers(min_value=0 if allow_zero_mass else 1, max_value=5))
    if n == 0:
        return DiscretePMF.zero()
    times = draw(
        st.lists(
            st.integers(min_time, max_time), min_size=n, max_size=n, unique=True
        )
    )
    weights = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    mass = draw(st.floats(0.05, 1.0, allow_nan=False))
    scale = mass / sum(weights)
    return DiscretePMF.from_impulses(
        {t: w * scale for t, w in zip(times, weights)}
    )


@st.composite
def batch_strategy(draw, min_rows=1, max_rows=5, **pmf_kwargs):
    rows = draw(
        st.lists(pmf_strategy(**pmf_kwargs), min_size=min_rows, max_size=max_rows)
    )
    return PMFBatch.from_pmfs(rows)


@st.composite
def scoring_case_strategy(draw):
    """Random (availability, execution grid, tasks) scoring problem."""
    n_machines = draw(st.integers(1, 4))
    n_types = draw(st.integers(1, 3))
    n_tasks = draw(st.integers(1, 6))
    avail_pmfs = [
        draw(pmf_strategy(min_time=0, max_time=40)) for _ in range(n_machines)
    ]
    grid = [
        [
            draw(pmf_strategy(min_time=1, max_time=25, allow_zero_mass=False))
            for _ in range(n_machines)
        ]
        for _ in range(n_types)
    ]
    types = draw(
        st.lists(st.integers(0, n_types - 1), min_size=n_tasks, max_size=n_tasks)
    )
    deadlines = draw(
        st.lists(st.integers(0, 80), min_size=n_tasks, max_size=n_tasks)
    )
    return avail_pmfs, grid, np.array(types), np.array(deadlines)


def _assert_same_pmf(got: DiscretePMF, want: DiscretePMF) -> None:
    """Bit-identical after compaction; zero-mass PMFs are equal regardless
    of the offset each path canonicalises to."""
    got, want = got.compact(), want.compact()
    if got.is_zero() and want.is_zero():
        return
    assert got.offset == want.offset
    assert np.array_equal(got.probs, want.probs)


# ----------------------------------------------------------------------
# Differential kernels, per installed backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", INSTALLED)
class TestBackendDifferential:
    @settings(max_examples=25, deadline=None)
    @given(batch=batch_strategy(), data=st.data())
    def test_convolve_ragged_matches_reference_and_scalar(self, name, batch, data):
        backend = get_backend(name)
        kernels = [
            data.draw(pmf_strategy(min_time=0, max_time=20))
            for _ in range(batch.n_pmfs)
        ]
        out = backend.convolve_ragged(batch, kernels)
        ref = batched_convolve_ragged(batch, kernels)
        assert out.offset == ref.offset
        assert np.array_equal(out.probs, ref.probs)
        for i in range(batch.n_pmfs):
            _assert_same_pmf(out.row(i), batch.row(i).convolve_with(kernels[i]))

    @settings(max_examples=25, deadline=None)
    @given(case=scoring_case_strategy())
    def test_success_probability_matches_reference_and_scalar(self, name, case):
        backend = get_backend(name)
        avail_pmfs, grid, types, deadlines = case
        batch = PMFBatch.from_pmfs(avail_pmfs)
        table = CDFTable.from_grid(grid)
        packed = pack_impulses(avail_pmfs)
        out = backend.success_probability(*packed, table, types, deadlines)
        ref = batched_success_probability(batch, table, types, deadlines)
        assert np.array_equal(out, ref)
        # The pair-list form, in an arbitrary order, is the same numbers.
        rows, slots = np.nonzero(np.ones(out.shape, dtype=bool))
        order = np.random.default_rng(out.size).permutation(rows.size)
        listed = backend.success_probability(
            *packed, table, types, deadlines, pairs=(rows[order], slots[order])
        )
        assert np.array_equal(listed, ref[rows[order], slots[order]])
        for i, (task_type, deadline) in enumerate(zip(types, deadlines)):
            for j, avail in enumerate(avail_pmfs):
                scalar = fast_success_probability(grid[task_type][j], avail, int(deadline))
                assert out[i, j] == scalar

    @settings(max_examples=25, deadline=None)
    @given(case=scoring_case_strategy())
    def test_expected_completion_matches_scalar(self, name, case):
        backend = get_backend(name)
        avail_pmfs, grid, types, _ = case
        means = np.array([p.mean() for p in avail_pmfs], dtype=np.float64)
        exec_means = np.array(
            [[grid[t][j].mean() for j in range(len(avail_pmfs))] for t in types],
            dtype=np.float64,
        )
        out = backend.expected_completion(means, exec_means)
        for i, task_type in enumerate(types):
            for j, avail in enumerate(avail_pmfs):
                scalar = expected_completion(grid[task_type][j], avail)
                if np.isnan(scalar):
                    assert np.isnan(out[i, j])
                else:
                    assert out[i, j] == scalar

    def test_ragged_rejects_row_mismatch(self, name):
        backend = get_backend(name)
        batch = PMFBatch.from_pmfs([DiscretePMF.point(1), DiscretePMF.point(2)])
        with pytest.raises(ValueError, match="one kernel per row"):
            backend.convolve_ragged(batch, [DiscretePMF.point(0)])

    def test_success_probability_rejects_machine_mismatch(self, name):
        backend = get_backend(name)
        batch = PMFBatch.single(DiscretePMF.point(3))
        table = CDFTable.from_pmf(DiscretePMF.point(2))
        with pytest.raises(ValueError, match="one row per entry"):
            backend.success_probability(
                *pack_batch(batch),
                table,
                np.array([0]),
                np.array([10]),
                machine_indices=np.array([0, 0]),
            )

    def test_success_probability_zero_mass_availability(self, name):
        backend = get_backend(name)
        batch = PMFBatch(np.zeros((2, 3)), 0)
        table = CDFTable.from_grid([[DiscretePMF.point(2), DiscretePMF.point(3)]])
        out = backend.success_probability(
            *pack_batch(batch), table, np.array([0]), np.array([9])
        )
        assert np.array_equal(out, np.zeros((1, 2)))


# ----------------------------------------------------------------------
# The core.batch ops no backend dispatches, on random batches vs scalar
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(batch=batch_strategy(), data=st.data())
def test_shift_matches_scalar(batch, data):
    delta = data.draw(st.integers(-10, 10))
    out = batched_shift(batch, delta)
    for i in range(batch.n_pmfs):
        _assert_same_pmf(out.row(i), batch.row(i).shift(delta))

    deltas = data.draw(
        st.lists(st.integers(-10, 10), min_size=batch.n_pmfs, max_size=batch.n_pmfs)
    )
    out = batched_shift(batch, np.array(deltas, dtype=np.int64))
    for i, delta in enumerate(deltas):
        _assert_same_pmf(out.row(i), batch.row(i).shift(delta))


@settings(max_examples=25, deadline=None)
@given(batch=batch_strategy(), kernel=pmf_strategy(min_time=0, max_time=20))
def test_convolve_matches_scalar(batch, kernel):
    out = batched_convolve(batch, kernel)
    for i in range(batch.n_pmfs):
        _assert_same_pmf(out.row(i), batch.row(i).convolve_with(kernel))


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=0, max_size=8),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_sequential_sum_matches_python_accumulation(values):
    arr = np.array(values, dtype=np.float64)
    for axis in (-1, 0, 1):
        expected = []
        for line in np.moveaxis(arr, axis, -1):
            acc = 0.0
            for value in line:
                acc = acc + value
            expected.append(acc)
        assert np.array_equal(sequential_sum(arr, axis=axis), np.array(expected))


# ----------------------------------------------------------------------
# The numba backend's loop body, as plain Python where numba is absent
# ----------------------------------------------------------------------


def plain_numba_backend() -> NumbaBackend:
    """``NumbaBackend`` over whatever ``_numba_kernels`` holds here.

    Without numba that is the loop body uncompiled, so tier-1 checks the
    very code the jit would compile (and the backend's operand glue).
    """
    backend = object.__new__(NumbaBackend)
    backend._jit = _numba_kernels
    return backend


@settings(max_examples=25, deadline=None)
@given(case=scoring_case_strategy())
def test_numba_scoring_body_matches_reference(case):
    backend = plain_numba_backend()
    avail_pmfs, grid, types, deadlines = case
    table = CDFTable.from_grid(grid)
    packed = pack_impulses(avail_pmfs)
    reference = NumpyBackend().success_probability(*packed, table, types, deadlines)
    out = backend.success_probability(*packed, table, types, deadlines)
    assert np.array_equal(out, reference)
    rows, slots = np.nonzero(np.ones(out.shape, dtype=bool))
    listed = backend.success_probability(
        *packed, table, types, deadlines, pairs=(rows[::-1], slots[::-1])
    )
    assert np.array_equal(listed, reference[rows[::-1], slots[::-1]])


@settings(max_examples=25, deadline=None)
@given(batch=batch_strategy(max_rows=3), data=st.data())
def test_numba_ragged_body_matches_reference(batch, data):
    """numba inherits numpy's ragged convolve, so it is the same bits."""
    backend = plain_numba_backend()
    kernels = [data.draw(pmf_strategy()) for _ in range(batch.n_pmfs)]
    out = backend.convolve_ragged(batch, kernels)
    ref = batched_convolve_ragged(batch, kernels)
    assert out.offset == ref.offset
    assert np.array_equal(out.probs, ref.probs)


# ----------------------------------------------------------------------
# Full seeded reference-trace trial per installed backend
# ----------------------------------------------------------------------


def _trial_signature(result):
    return tuple(
        (
            t.task_id,
            t.status.value,
            t.machine,
            t.mapped_at,
            t.exec_start,
            t.exec_end,
            t.dropped_at,
        )
        for t in result.tasks
    )


@pytest.fixture(scope="module")
def reference_trace():
    return load_trace(REFERENCE_TRACE)


@pytest.fixture(scope="module")
def reference_result(reference_trace):
    pet = build_transcoding_pet(rng=2019)
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    return simulate(pet, heuristic, reference_trace, rng=2021)


@pytest.mark.parametrize("name", INSTALLED)
def test_reference_trace_trial_matches(name, reference_trace, reference_result):
    """660-task seeded trial: every installed backend vs the default run."""
    pet = build_transcoding_pet(rng=2019)
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    result = simulate(
        pet,
        heuristic,
        reference_trace,
        config=SimulatorConfig(kernel_backend=name),
        rng=2021,
    )
    assert _trial_signature(result) == _trial_signature(reference_result)


def test_default_backend_unscoped_run_unchanged(reference_trace, reference_result):
    """kernel_backend=None must leave the process-wide default untouched."""
    pet = build_transcoding_pet(rng=2019)
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    result = simulate(
        pet, heuristic, reference_trace, config=SimulatorConfig(), rng=2021
    )
    assert _trial_signature(result) == _trial_signature(reference_result)


# ----------------------------------------------------------------------
# Dispatch plumbing: the engine and the chain step honour the scope
# ----------------------------------------------------------------------


class _SpyBackend(NumpyBackend):
    name = "numpy"

    def __init__(self):
        self.calls: dict[str, int] = {}

    def _count(self, key):
        self.calls[key] = self.calls.get(key, 0) + 1

    def convolve_ragged(self, batch, kernels):
        self._count("convolve_ragged")
        return super().convolve_ragged(batch, kernels)

    def success_probability(self, *args, **kwargs):
        self._count("success_probability")
        return super().success_probability(*args, **kwargs)

    def expected_completion(self, *args, **kwargs):
        self._count("expected_completion")
        return super().expected_completion(*args, **kwargs)


@pytest.mark.parametrize(
    "op", ["convolve_ragged", "success_probability", "expected_completion"]
)
def test_instrumented_backend_forwards_and_times_each_op(op):
    batch = PMFBatch.from_pmfs(
        [DiscretePMF.point(1), DiscretePMF.from_impulses({2: 0.5, 4: 0.5})]
    )
    table = CDFTable.from_grid([[DiscretePMF.point(2), DiscretePMF.point(3)]])
    args = {
        "convolve_ragged": (
            batch,
            [DiscretePMF.point(2), DiscretePMF.from_impulses({0: 0.5, 3: 0.5})],
        ),
        "success_probability": (
            *pack_batch(batch), table, np.array([0]), np.array([6])
        ),
        "expected_completion": (batch.means(), np.array([[2.0, 3.0]])),
    }[op]
    spy, telemetry = _SpyBackend(), Telemetry()
    out = getattr(InstrumentedBackend(spy, telemetry), op)(*args)
    want = getattr(NumpyBackend(), op)(*args)
    if isinstance(want, PMFBatch):
        assert out.offset == want.offset
        out, want = out.probs, want.probs
    assert np.array_equal(out, want)
    assert spy.calls == {op: 1}
    assert [span[0] for span in telemetry.spans] == [f"kernel.numpy.{op}"]


def test_engine_scopes_backend_around_event_loop(reference_trace):
    spy = _SpyBackend()
    pet = build_transcoding_pet(rng=2019)
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    sim = HCSimulator(pet, heuristic, rng=2021)
    sim._kernel_backend = spy  # a live instance is accepted wherever a name is
    sim.run(
        type(reference_trace)(reference_trace.tasks[:40], reference_trace.config)
    )
    assert spy.calls.get("success_probability", 0) >= 1
    assert spy.calls.get("expected_completion", 0) >= 1
    assert active_backend() is not spy  # scope restored after the run


# ----------------------------------------------------------------------
# Registry and selection order
# ----------------------------------------------------------------------


class TestSelection:
    def test_numpy_always_available(self):
        assert "numpy" in INSTALLED
        assert backend_available("numpy")
        assert not backend_available("not-a-backend")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolved_backend_name("cuda")

    def test_selection_order(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert resolved_backend_name(None) == "numpy"
        # Resolving a name never constructs the backend, so this holds
        # on an interpreter without numba too.
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numba")
        assert resolved_backend_name(None) == "numba"
        # Explicit selection wins over the environment.
        assert resolved_backend_name("numpy") == "numpy"
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "warp-drive")
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            resolved_backend_name(None)

    def test_protocol_is_the_three_dispatched_ops(self):
        ops = {
            name
            for name, value in vars(KernelBackend).items()
            if callable(value) and not name.startswith("_")
        }
        assert ops == {"convolve_ragged", "success_probability", "expected_completion"}
        assert isinstance(get_backend("numpy"), KernelBackend)
        assert isinstance(InstrumentedBackend(NumpyBackend(), None), KernelBackend)

    def test_resolve_backend_passes_instances_through(self):
        instance = NumpyBackend()
        assert resolve_backend(instance) is instance
        assert resolve_backend("numpy") is get_backend("numpy")

    def test_use_backend_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        previous = set_active_backend("numpy")
        spy = _SpyBackend()
        with use_backend(spy) as scoped:
            assert scoped is spy
            assert active_backend() is spy
        assert active_backend() is previous
        # None is a no-op scope.
        with use_backend(None) as scoped:
            assert scoped is previous
        assert active_backend() is previous

    def test_use_backend_restores_on_exception(self):
        previous = set_active_backend("numpy")
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend(_SpyBackend()):
                raise RuntimeError("boom")
        assert active_backend() is previous

    @pytest.mark.skipif(
        backend_available("numba"), reason="numba installed: backend is available"
    )
    def test_missing_numba_is_unavailable_not_broken(self):
        assert "numba" not in INSTALLED
        with pytest.raises(KernelBackendUnavailable, match="numba"):
            get_backend("numba")
        # Fail-fast at simulator construction, not mid-run.
        pet = build_transcoding_pet(rng=2019)
        heuristic = make_heuristic("MM", num_task_types=pet.num_task_types)
        with pytest.raises(KernelBackendUnavailable, match="numba"):
            HCSimulator(
                pet, heuristic, config=SimulatorConfig(kernel_backend="numba")
            )

    def test_simulator_config_validates_backend_name(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            SimulatorConfig(kernel_backend="warp-drive")
