"""Micro-benchmarks of the probabilistic substrate.

These time the inner kernels of the simulator — PET construction, PMF
convolution, completion-time chains, success-probability scoring (scalar and
batched) and a full mapping event — so performance regressions in the hot
path are visible independently of the figure-level harnesses.

``test_bench_batched_mapping_event_scoring`` is the acceptance gate for the
batched engine: on a paper-scale mapping event it checks the batched grid is
bit-identical to the scalar double loop *and* at least 3x faster.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from _artefacts import record_bench

from repro.core.batch import PMFBatch, batched_success_probability
from repro.core.completion import DroppingPolicy, queue_completion_pmfs
from repro.core.pmf import DiscretePMF
from repro.heuristics.registry import make_heuristic
from repro.heuristics.scoring import fast_success_probability
from repro.pet.builders import build_spec_pet
from repro.simulator.engine import simulate
from repro.workload.generator import WorkloadConfig, generate_workload


@pytest.fixture(scope="module")
def spec_pet():
    return build_spec_pet(rng=1)


@pytest.fixture(scope="module")
def wide_pmf():
    rng = np.random.default_rng(3)
    return DiscretePMF.from_samples(rng.gamma(2.0, 60.0, size=500))


@pytest.fixture(scope="module")
def availability_pmf(wide_pmf):
    return wide_pmf.shift(100).aggregate(32)


def test_bench_pet_construction(benchmark):
    pet = benchmark.pedantic(lambda: build_spec_pet(rng=1, n_samples=500), rounds=1, iterations=1)
    assert pet.num_task_types == 12


def test_bench_pmf_convolution(benchmark, wide_pmf, availability_pmf):
    result = benchmark(lambda: wide_pmf.convolve(availability_pmf))
    assert result.total_mass() == pytest.approx(1.0)


def test_bench_pmf_aggregation(benchmark, wide_pmf):
    result = benchmark(lambda: wide_pmf.aggregate(32))
    assert np.count_nonzero(result.probs) <= 32


def test_bench_completion_chain(benchmark, spec_pet):
    pets = [spec_pet.get(t % 12, t % 8) for t in range(6)]
    deadlines = [300 + 150 * i for i in range(6)]

    def chain():
        return queue_completion_pmfs(
            pets,
            deadlines,
            start=DiscretePMF.point(0),
            policy=DroppingPolicy.EVICT,
            max_impulses=32,
        )

    result = benchmark(chain)
    assert len(result) == 6


def test_bench_success_probability_scoring(benchmark, spec_pet, availability_pmf):
    exec_pmf = spec_pet.get(0, 0)

    def score_many():
        return [
            fast_success_probability(exec_pmf, availability_pmf, deadline)
            for deadline in range(200, 1000, 10)
        ]

    values = benchmark(score_many)
    assert all(0.0 <= v <= 1.0 for v in values)


def test_bench_batched_mapping_event_scoring(benchmark, spec_pet):
    """Batched vs scalar scoring of one paper-scale mapping event.

    Paper scale: the full 12-type x 8-machine SPEC PET, every machine with a
    non-trivial availability chain, and an oversubscribed batch queue of 200
    unmapped tasks — 1600 candidate (task, machine) pairs.  The batched
    kernel must reproduce the scalar double loop bit for bit and beat it by
    at least 3x.
    """
    rng = np.random.default_rng(21)
    n_machines = spec_pet.num_machines
    availabilities = [
        DiscretePMF.from_samples(rng.gamma(2.0, 60.0, size=400))
        .shift(int(rng.integers(0, 50)))
        .aggregate(32)
        for _ in range(n_machines)
    ]
    n_tasks = 200
    types = rng.integers(0, spec_pet.num_task_types, size=n_tasks)
    deadlines = rng.integers(100, 1200, size=n_tasks)
    batch = PMFBatch.from_pmfs(availabilities)
    cdf_table = spec_pet.cdf_table()

    def batched():
        return batched_success_probability(batch, cdf_table, types, deadlines)

    def scalar_double_loop():
        out = np.zeros((n_tasks, n_machines))
        for i in range(n_tasks):
            for j in range(n_machines):
                out[i, j] = fast_success_probability(
                    spec_pet.get(int(types[i]), j), availabilities[j], int(deadlines[i])
                )
        return out

    def best_of(fn, repeats):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    # Exact-equivalence gate at paper scale (atol=0).
    assert np.array_equal(batched(), scalar_double_loop())

    # Timing gate, best-of comparisons retried a few times so a noisy shared
    # CI runner cannot fail the build on a transient stall.  The reported
    # timings are the pair from the best round, so they stay consistent with
    # the headline speedup.
    speedup, scalar_seconds, batched_seconds = 0.0, float("inf"), float("inf")
    for _ in range(3):
        round_scalar = best_of(scalar_double_loop, 3)
        round_batched = best_of(batched, 10)
        if round_scalar / round_batched > speedup:
            speedup = round_scalar / round_batched
            scalar_seconds, batched_seconds = round_scalar, round_batched
        if speedup >= 3.0:
            break
    grid = benchmark.pedantic(batched, rounds=3, iterations=1)
    assert grid.shape == (n_tasks, n_machines)
    benchmark.extra_info["scalar_ms"] = round(scalar_seconds * 1e3, 3)
    benchmark.extra_info["batched_ms"] = round(batched_seconds * 1e3, 3)
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    record_bench(
        "batched_mapping_event_scoring",
        {
            "scalar_ms": round(scalar_seconds * 1e3, 3),
            "batched_ms": round(batched_seconds * 1e3, 3),
            "speedup_vs_scalar": round(speedup, 2),
            "gate": 3.0,
        },
    )
    assert speedup >= 3.0, f"batched scoring only {speedup:.2f}x faster than scalar"


def test_bench_obs_overhead(benchmark, spec_pet):
    """The observability acceptance gate: disabled telemetry costs <2%.

    With the default :data:`~repro.obs.NULL_TELEMETRY` active, the
    instrumented hot paths execute one extra ``obs.enabled`` guard (a class
    attribute read on a shared singleton) per hook site and nothing else —
    no span objects, no clock reads, no dict updates.  This bench measures
    that guard cost directly and gates it as a fraction of the two paper
    loops it rides on:

    * the per-event simulator loop (~1 ms/task at paper scale), budgeting a
      generous 25 hook executions per event, and
    * one ScoreTable fill (2 hook executions), whose duration is taken from
      our own tracing of the same run.

    Both ratios must stay under 2%.  The enabled-tracing overhead (full
    span recording) is measured on the same 150-task simulation and
    recorded ungated — tracing is opt-in and allowed to cost more.
    """
    from repro.obs import NULL_TELEMETRY, Telemetry, use_telemetry
    from repro.obs import active as obs_active

    trace = generate_workload(
        WorkloadConfig(num_tasks=150, time_span=900, beta=1.5), spec_pet, rng=11
    )

    def run(telemetry):
        heuristic = make_heuristic("PAMF", num_task_types=spec_pet.num_task_types)
        with use_telemetry(telemetry):
            return simulate(spec_pet, heuristic, trace, rng=13)

    def best_of(fn, repeats):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    # The exact statements a disabled hook site executes, timed in bulk.
    hook_reps = 200_000
    counter = 0

    def disabled_hooks():
        nonlocal counter
        for _ in range(hook_reps):
            obs = obs_active()
            if obs.enabled:
                raise AssertionError("telemetry must be disabled here")
            counter += 1

    assert obs_active() is NULL_TELEMETRY
    hook_seconds = best_of(disabled_hooks, 5) / hook_reps

    null_seconds = best_of(lambda: run(NULL_TELEMETRY), 3)
    # Arrival + finish per task undercounts the true event total (markers,
    # mapping events), which overstates the per-event hook ratio: the gate
    # is conservative.
    event_seconds = null_seconds / (2 * 150)
    per_event_ratio = 25 * hook_seconds / event_seconds

    telemetry = Telemetry()
    traced_seconds = best_of(lambda: run(telemetry), 3)
    fill = telemetry.timings["score_table.fill"]
    fill_seconds = fill.mean
    per_fill_ratio = 2 * hook_seconds / fill_seconds

    result = benchmark.pedantic(lambda: run(NULL_TELEMETRY), rounds=1, iterations=1)
    assert all(t.is_terminal for t in result.tasks)
    enabled_overhead = traced_seconds / null_seconds - 1.0

    row = {
        "hook_ns": round(hook_seconds * 1e9, 2),
        "event_us": round(event_seconds * 1e6, 2),
        "fill_us": round(fill_seconds * 1e6, 2),
        "disabled_per_event_percent": round(per_event_ratio * 100, 4),
        "disabled_per_fill_percent": round(per_fill_ratio * 100, 4),
        "enabled_overhead_percent": round(enabled_overhead * 100, 2),
        "gate_percent": 2.0,
    }
    benchmark.extra_info.update(row)
    record_bench("obs_overhead", row)
    assert per_event_ratio < 0.02, (
        f"disabled telemetry hooks cost {per_event_ratio:.2%} of the event loop"
    )
    assert per_fill_ratio < 0.02, (
        f"disabled telemetry hooks cost {per_fill_ratio:.2%} of a ScoreTable fill"
    )


@pytest.mark.parametrize("heuristic_name", ["MM", "PAM"])
def test_bench_full_small_simulation(benchmark, spec_pet, heuristic_name):
    trace = generate_workload(
        WorkloadConfig(num_tasks=150, time_span=900, beta=1.5), spec_pet, rng=11
    )

    def run():
        heuristic = make_heuristic(heuristic_name, num_task_types=spec_pet.num_task_types)
        return simulate(spec_pet, heuristic, trace, rng=13)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(t.is_terminal for t in result.tasks)
    benchmark.extra_info["robustness_percent"] = result.robustness_percent(warmup=20, cooldown=20)
