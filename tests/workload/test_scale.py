"""Tests for the vectorised production-scale trace builder."""

from __future__ import annotations

import time

import pytest

from repro.pet.builders import build_spec_pet
from repro.workload import TRACE_BUILDERS, build_named_trace
from repro.workload.scale import (
    SCALE_TRACE_SEED,
    ScaleTraceConfig,
    generate_scale_trace,
    scale_trace,
)


@pytest.fixture(scope="module")
def spec_pet():
    return build_spec_pet(rng=SCALE_TRACE_SEED)


class TestScaleTrace:
    def test_deterministic_per_seed(self):
        a = scale_trace(seed=7, num_tasks=500)
        b = scale_trace(seed=7, num_tasks=500)
        c = scale_trace(seed=8, num_tasks=500)
        assert a.tasks == b.tasks
        assert a.tasks != c.tasks

    def test_trace_invariants(self):
        trace = scale_trace(seed=3, num_tasks=1000)
        assert len(trace) == 1000
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)
        assert all(t.deadline > t.arrival for t in trace)
        assert sorted(t.task_id for t in trace) == list(range(1000))
        assert trace.num_task_types == 12  # the SPECint-style PET

    def test_load_factor_calibration_holds_across_scales(self, spec_pet):
        """The same load factor at 2k and at 20k tasks: a small slice of the
        scale trace exercises the same operating regime as the full one."""
        for n in (2_000, 20_000):
            trace = scale_trace(seed=5, num_tasks=n)
            assert trace.offered_load(spec_pet) == pytest.approx(1.15, abs=0.03)

    def test_load_factor_knob(self, spec_pet):
        trace = generate_scale_trace(
            ScaleTraceConfig(num_tasks=5_000, load_factor=2.0), rng=5, pet=spec_pet
        )
        assert trace.offered_load(spec_pet) == pytest.approx(2.0, abs=0.06)

    def test_generation_is_vectorised_fast(self):
        """100k tasks in well under the per-task-loop regime (~seconds)."""
        start = time.perf_counter()
        trace = scale_trace(seed=1, num_tasks=100_000)
        elapsed = time.perf_counter() - start
        assert len(trace) == 100_000
        assert elapsed < 5.0

    def test_registered_as_named_builder(self):
        assert "scale" in TRACE_BUILDERS
        via_registry = build_named_trace("scale", seed=9, num_tasks=300)
        direct = scale_trace(seed=9, num_tasks=300)
        assert via_registry.tasks == direct.tasks

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tasks": 0},
            {"load_factor": 0.0},
            {"beta": -1.0},
            {"variance_fraction": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScaleTraceConfig(**kwargs)

    @pytest.mark.parametrize("field", ["load_factor", "beta", "variance_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        """A NaN slack gave every task ``deadline = arrival + 1``, an infinite
        load factor put every arrival at t = 1; both are refused up front."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ScaleTraceConfig(num_tasks=5, **{field: value})
