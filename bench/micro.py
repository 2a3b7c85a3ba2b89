"""Micro-drivers (``M`` metrics): each layer's public functions on fixed inputs.

The fixtures are the seeded ones of ``benchmarks/test_bench_micro.py``
(rebuilt here: the benchmark is self-contained), so these numbers line up
with the existing micro gates.  They do not depend on the workload or the
benchmark seed; every traced run takes them, best of a few batches.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from . import RESULTS_DIR
from .common import PET_SEED

BATCHES = 5


def best_seconds_per_call(call, *, calls: int, batches: int = BATCHES) -> float:
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def _state_events(spec_pet, n_events: int = 30):
    """``test_bench_incremental_system_state``'s event loop, incremental path.

    Returns a callable running it once and giving the seconds per event
    (finish + start + enqueue + ``availability_batch``), queue set-up excluded.
    """
    import numpy as np
    from repro.simulator.machine import Machine
    from repro.simulator.state import SystemState
    from repro.simulator.task import Task
    from repro.workload.spec import TaskSpec

    n_machines, queue_depth = spec_pet.num_machines, 6
    rng = np.random.default_rng(33)
    actuals = rng.integers(30, 90, size=4 * n_events + n_machines * queue_depth).tolist()
    types = rng.integers(0, spec_pet.num_task_types, size=len(actuals)).tolist()

    def make_task(task_id: int, deadline: int, task_type: int) -> Task:
        return Task(TaskSpec(arrival=0, task_id=task_id, task_type=task_type, deadline=deadline))

    def run_events() -> float:
        machines = [
            Machine(j, name, queue_capacity=queue_depth)
            for j, name in enumerate(spec_pet.machine_names)
        ]
        next_id = iter(range(10**6))
        draw = iter(zip(actuals, types))
        for machine in machines:
            actual = 0
            for slot in range(queue_depth):
                actual, task_type = next(draw)
                machine.enqueue(make_task(next(next_id), 400 + 60 * slot, task_type), now=0)
            machine.start_next(now=0, actual_execution_time=int(actual))
        state = SystemState(machines, spec_pet)
        state.availability_batch(0)
        start = time.perf_counter()
        for event in range(n_events):
            now = event + 1
            finisher = machines[event % n_machines]
            if finisher.executing is not None:
                done = finisher.executing
                finisher.finish_executing(done, now)
                state.notify_finish(finisher.index, done)
            if finisher.is_idle and finisher.pending:
                actual, _ = next(draw)
                finisher.start_next(now, int(actual))
                state.notify_start(finisher.index)
            target = machines[(event + 3) % n_machines]
            if target.has_free_slot:
                actual, task_type = next(draw)
                task = make_task(next(next_id), now + 500, task_type)
                target.enqueue(task, now)
                state.notify_enqueue(target.index, task)
            state.availability_batch(now)
        return (time.perf_counter() - start) / n_events

    return run_events


def _cache_round_trip():
    """One ``ResultCache.store`` / ``load`` of a one-trial PAMF point."""
    from repro.experiments.config import ExperimentConfig, workload_for_level
    from repro.sweep import HeuristicSpec, PETSpec, ResultCache, SweepPoint, TrialMetrics

    config = ExperimentConfig(trials=1)
    point = SweepPoint(
        label="bench",
        pet=PETSpec(kind="spec", seed=PET_SEED),
        heuristic=HeuristicSpec("PAMF"),
        workload=workload_for_level("19k", config),
        config=config,
    )
    trials = [
        TrialMetrics(
            robustness_percent=57.8,
            fairness_variance=120.5,
            total_cost=1.25,
            cost_per_percent_on_time=0.02,
            completed_on_time=260,
            total_tasks=450,
            per_type_completion_percent=tuple(50.0 + i for i in range(12)),
        )
    ]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="cache-", dir=RESULTS_DIR))
    cache = ResultCache(root)
    return cache, point, trials, root


def measure(*, smoke: bool = False) -> dict[str, float]:
    from functools import partial

    import numpy as np

    from repro.core.batch import PMFBatch, batched_success_probability
    from repro.core.completion import DroppingPolicy, queue_completion_pmfs
    from repro.core.kernels import get_backend
    from repro.core.pmf import DiscretePMF
    from repro.pet.builders import build_spec_pet
    from repro.serve.protocol import decode_line, encode_line, spec_from_payload, spec_to_payload
    from repro.workload.scale import ScaleTraceConfig, generate_scale_trace
    from repro.workload.spec import TaskSpec

    spec_pet = build_spec_pet(rng=1)
    wide = DiscretePMF.from_samples(np.random.default_rng(3).gamma(2.0, 60.0, size=500))
    availability = wide.shift(100).aggregate(32)

    chain_pets = [spec_pet.get(t % 12, t % 8) for t in range(6)]
    deadlines6 = [300 + 150 * i for i in range(6)]

    def chain6():
        return queue_completion_pmfs(
            chain_pets,
            deadlines6,
            start=DiscretePMF.point(0),
            policy=DroppingPolicy.EVICT,
            max_impulses=32,
        )

    rng = np.random.default_rng(21)
    n_tasks, n_machines = 200, spec_pet.num_machines

    def sparse_pmf():
        return (
            DiscretePMF.from_samples(rng.gamma(2.0, 60.0, size=400))
            .shift(int(rng.integers(0, 50)))
            .aggregate(32)
        )

    avail_batch = PMFBatch.from_pmfs([sparse_pmf() for _ in range(n_machines)])
    types = rng.integers(0, spec_pet.num_task_types, size=n_tasks)
    deadlines = rng.integers(100, 1200, size=n_tasks)
    cdf_table = spec_pet.cdf_table()
    pet_batch = PMFBatch.from_pmfs(
        [spec_pet.get(int(types[i]), i % n_machines) for i in range(n_tasks)]
    )
    ragged_kernels = [sparse_pmf() for _ in range(n_tasks)]
    numpy_backend = get_backend("numpy")
    best = partial(best_seconds_per_call, batches=1 if smoke else BATCHES)

    run_events = _state_events(spec_pet)

    pet = build_spec_pet(rng=PET_SEED)
    trace_config = ScaleTraceConfig(num_tasks=2500)
    spec = TaskSpec(arrival=120, task_id=7, task_type=3, deadline=480)

    def codec():
        line = encode_line({"op": "submit", "task": spec_to_payload(spec)})
        return spec_from_payload(decode_line(line)["task"])

    cache, point, trials, cache_root = _cache_round_trip()
    try:
        store_s = best(lambda: cache.store(point, trials), calls=20)
        load_s = best(lambda: cache.load(point), calls=50)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    return {
        "core.chain6_us": best(chain6, calls=20) * 1e6,
        "core.convolve_us": best(
            lambda: wide.convolve(availability), calls=200
        ) * 1e6,
        "core.score_grid_ms": best(
            lambda: batched_success_probability(avail_batch, cdf_table, types, deadlines),
            calls=10,
        ) * 1e3,
        "core.ragged_convolve_ms": best(
            lambda: numpy_backend.convolve_ragged(pet_batch, ragged_kernels), calls=1
        ) * 1e3,
        "state.incremental_event_us": min(run_events() for _ in range(1 if smoke else BATCHES)) * 1e6,
        "pet.build_s": best(lambda: build_spec_pet(rng=PET_SEED), calls=1),
        "workload.build_s": best(
            lambda: generate_scale_trace(trace_config, rng=PET_SEED, pet=pet), calls=2
        ),
        "serve.codec_us": best(codec, calls=500) * 1e6,
        "sweep.cache_load_us": load_s * 1e6,
        "sweep.cache_store_us": store_s * 1e6,
    }
