"""Regenerate (or verify) the pinned decision digests of the reference trace.

``tests/simulator/decision_digests.json`` records, for the shipped 660-task
transcoding trace under each of the six paper heuristics and both engine
modes (``batch_window`` 0 and 120), a BLAKE2 digest of the per-task outcome
map (``offline_decision_map``) and the run's ``SimulationCounters``.  The
``scale-oversub/`` rows pin the oversubscribed regime the same way: a
600-task load-3.0 scale trace on the SPEC PET under the three
robustness-based heuristics (where every event re-evaluates the deferred
batch).  The ``scale-event/`` and ``scale-batched/`` rows pin PAMF on the
inputs of the perf ledger's other two trial workloads (``bench/trial.py``:
1,000 tasks at load 1.15 mapped per event, 2,400 tasks in 120-unit rounds;
PET, trace and engine seeds as the bench uses them).  The ``pending/`` rows
pin PAM and PAMF on the 660-task trace with
``evict_executing_at_deadline=False`` — the PENDING dropping regime, whose
chains and pruner walk differ from the default EVICT ones.  A performance change
that claims "same decisions, less work" is checked against this committed
artefact in tier-1
(``tests/simulator/test_decision_digests.py``), not only against sibling
code paths inside the tree.

Usage::

    PYTHONPATH=src python scripts/make_decision_digests.py [--check]

Rewrite the file only when a change is *meant* to alter decisions (and bump
``repro.core.batch.KERNEL_VERSION`` with it).  Bump ``KERNEL_VERSION`` also
whenever a change can move *values* — scores, availabilities, success
probabilities — even when every digest holds: the digests pin decisions,
while the sweep cache stores results computed from those values.
``--check`` verifies the committed file without writing (exit status 1 on
mismatch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.heuristics.registry import HEURISTIC_NAMES, make_heuristic  # noqa: E402
from repro.pet.builders import build_spec_pet, build_transcoding_pet  # noqa: E402
from repro.serve.service import offline_decision_map  # noqa: E402
from repro.simulator.engine import HCSimulator, SimulatorConfig  # noqa: E402
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace  # noqa: E402
from repro.workload.traces import load_trace  # noqa: E402

REFERENCE_TRACE = REPO_ROOT / "examples" / "transcoding_660.trace.json"
DIGEST_PATH = REPO_ROOT / "tests" / "simulator" / "decision_digests.json"
BATCH_WINDOWS = (0, 120)
PET_SEED = 2019
ENGINE_SEED = 2021
#: Trace (and, for the bench workloads, engine) seed of the scale rows.
SCALE_SEED = 2019


def digest_key(heuristic: str, batch_window: int, workload: str = "") -> str:
    """``[workload/]heuristic/window=N``; the 660-task rows carry no workload."""
    key = f"{heuristic}/window={batch_window}"
    return f"{workload}/{key}" if workload else key


def reference_inputs():
    """PET and trace of the 660-task rows."""
    return build_transcoding_pet(rng=PET_SEED), load_trace(REFERENCE_TRACE)


def scale_inputs(num_tasks: int, load_factor: float):
    """The SPEC PET and a scale trace on it (``bench/trial.py``'s builder)."""

    def build():
        pet = build_spec_pet(rng=PET_SEED)
        config = ScaleTraceConfig(num_tasks=num_tasks, load_factor=load_factor)
        return pet, generate_scale_trace(config, rng=SCALE_SEED, pet=pet)

    return build


def decision_digest(
    pet,
    trace,
    heuristic: str,
    batch_window: int,
    engine_seed: int = ENGINE_SEED,
    config: tuple[tuple[str, object], ...] = (),
) -> str:
    """BLAKE2 of one seeded run's per-task outcomes and counters."""
    sim = HCSimulator(
        pet,
        make_heuristic(heuristic, num_task_types=pet.num_task_types),
        config=SimulatorConfig(batch_window=batch_window, **dict(config)),
        rng=engine_seed,
    )
    result = sim.run(trace)
    payload = repr(
        (
            sorted(offline_decision_map(result).items()),
            sorted(result.counters.as_dict().items()),
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


class Workload(NamedTuple):
    """One key prefix: its inputs and the runs pinned on them."""

    inputs: Callable
    heuristics: tuple[str, ...]
    windows: tuple[int, ...] = BATCH_WINDOWS
    engine_seed: int = ENGINE_SEED
    #: ``SimulatorConfig`` fields other than ``batch_window``, as pairs.
    config: tuple[tuple[str, object], ...] = ()


WORKLOADS = {
    "": Workload(reference_inputs, HEURISTIC_NAMES),
    "scale-oversub": Workload(scale_inputs(600, 3.0), ("PAMF", "PAM", "MOC")),
    "scale-event": Workload(scale_inputs(1000, 1.15), ("PAMF",), (0,), SCALE_SEED),
    "scale-batched": Workload(scale_inputs(2400, 1.15), ("PAMF",), (120,), SCALE_SEED),
    "pending": Workload(
        reference_inputs, ("PAM", "PAMF"), config=(("evict_executing_at_deadline", False),)
    ),
}


def workload_keys(workload: str) -> list[tuple[str, str, int]]:
    """``(key, heuristic, window)`` of every run pinned on one workload."""
    spec = WORKLOADS[workload]
    return [
        (digest_key(heuristic, window, workload), heuristic, window)
        for heuristic in spec.heuristics
        for window in spec.windows
    ]


def compute_digests() -> dict[str, str]:
    digests = {}
    for workload, spec in WORKLOADS.items():
        pet, trace = spec.inputs()
        for key, heuristic, window in workload_keys(workload):
            digests[key] = decision_digest(
                pet, trace, heuristic, window, spec.engine_seed, spec.config
            )
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed digests instead of writing them",
    )
    args = parser.parse_args(argv)

    digests = compute_digests()
    if args.check:
        committed = json.loads(DIGEST_PATH.read_text())
        drifted = sorted(
            key
            for key in committed.keys() | digests.keys()
            if committed.get(key) != digests.get(key)
        )
        if drifted:
            print(f"decision digests drifted: {drifted}")
            return 1
        print(f"decision digests OK ({len(digests)} runs)")
        return 0
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH} ({len(digests)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
