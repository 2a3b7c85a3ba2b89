"""Print the bytes a finished simulation result retains per task, the bytes
a serving core keeps per finished task, and the bytes of the spec PET's CDF
table.

The run is the perf ledger's ``trial-batched`` input (``bench/trial.py``):
2,400 scale-trace tasks at load 1.15 on the SPEC PET, PAMF in 120-unit
rounds, seed 2019.  The first figure is what ``tracemalloc`` sees released
when the result is dropped, after the engine and the trace are gone,
divided by the task count.  ``tests/simulator/test_outcomes.py`` gates it
at 48 bytes.  The second submits the same tasks one by one to a
``SchedulerCore`` (the ``repro serve`` core), drops the trace, and divides
what is released when the engine's live outcome rows and its set of
injected ids are dropped by the number of finished tasks: what a
long-lived service keeps per task it is done with.  The third is
``cdf_table().flat.nbytes`` of the same PET, the execution-time CDFs every
mapping event scores against.  CI prints all three on every commit.

Usage::

    python scripts/result_footprint.py
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.heuristics.registry import make_heuristic  # noqa: E402
from repro.pet.builders import build_spec_pet  # noqa: E402
from repro.serve.service import SchedulerCore  # noqa: E402
from repro.simulator.engine import HCSimulator, SimulatorConfig  # noqa: E402
from repro.simulator.metrics import OutcomeTable  # noqa: E402
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace  # noqa: E402

NUM_TASKS = 2400
SEED = 2019


def batched_run(engine=HCSimulator) -> tuple:
    """An ``HCSimulator`` (or a ``SchedulerCore``, as ``engine``) and the
    trace of the ``trial-batched`` shape, not yet run."""
    pet = build_spec_pet(rng=SEED)
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=NUM_TASKS, load_factor=1.15), rng=SEED, pet=pet
    )
    sim = engine(
        pet,
        make_heuristic("PAMF", num_task_types=pet.num_task_types),
        config=SimulatorConfig(batch_window=120),
        rng=SEED,
    )
    return sim, trace


def bytes_per_task() -> float:
    """Bytes released per task when a finished result is dropped."""
    sim, trace = batched_run()
    tracemalloc.start()
    try:
        result = sim.run(trace)
        num_tasks = result.num_tasks
        del sim, trace
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / num_tasks
    finally:
        tracemalloc.stop()


def core_bytes_per_task() -> float:
    """Bytes a serving core keeps per finished task: its outcome rows and ids."""
    tracemalloc.start()  # before the trace, so its task ids are traced too
    try:
        core, trace = batched_run(SchedulerCore)
        for spec in trace:
            core.submit(spec)
        del trace, spec
        gc.collect()
        engine = core._sim
        finished = len(engine._injected) - len(engine.tasks)
        held = tracemalloc.get_traced_memory()[0]
        engine._outcomes, engine._injected = OutcomeTable(), set()
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / finished
    finally:
        tracemalloc.stop()


def cdf_table_bytes() -> int:
    """Bytes of the spec PET's flat CDF table at the run's seed."""
    return build_spec_pet(rng=SEED).cdf_table().flat.nbytes


def main() -> int:
    print(f"finished result: {bytes_per_task():.1f} bytes per task ({NUM_TASKS:,}-task batched run)")
    print(f"serving core: {core_bytes_per_task():.1f} bytes per finished task (same tasks, submitted)")
    print(f"spec PET CDF table: {cdf_table_bytes():,} bytes (build_spec_pet(rng={SEED}))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
