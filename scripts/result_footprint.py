"""Print the bytes a finished simulation result retains per task, and the
bytes of the spec PET's CDF table.

The run is the perf ledger's ``trial-batched`` input (``bench/trial.py``):
2,400 scale-trace tasks at load 1.15 on the SPEC PET, PAMF in 120-unit
rounds, seed 2019.  The figure is what ``tracemalloc`` sees released when
the result is dropped, after the engine and the trace are gone, divided by
the task count.  ``tests/simulator/test_outcomes.py`` gates it at 128
bytes.  The second figure is ``cdf_table().flat.nbytes`` of the same PET,
the execution-time CDFs every mapping event scores against.  CI prints both
on every commit.

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
from repro.simulator.engine import HCSimulator, SimulatorConfig  # noqa: E402
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace  # noqa: E402

NUM_TASKS = 2400
SEED = 2019


def batched_run() -> tuple[HCSimulator, object]:
    """The engine and trace of the ``trial-batched`` shape, not yet run."""
    pet = build_spec_pet(rng=SEED)
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=NUM_TASKS, load_factor=1.15), rng=SEED, pet=pet
    )
    sim = HCSimulator(
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


def cdf_table_bytes() -> int:
    """Bytes of the spec PET's flat CDF table at the run's seed."""
    return build_spec_pet(rng=SEED).cdf_table().flat.nbytes


def main() -> int:
    print(f"finished result: {bytes_per_task():.1f} bytes per task ({NUM_TASKS:,}-task batched run)")
    print(f"spec PET CDF table: {cdf_table_bytes():,} bytes (build_spec_pet(rng={SEED}))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
