"""CI smoke test for the observability layer at scale.

Runs the seeded 2k-task scale trial (the ``ScaleTraceConfig`` workload of
the scale benchmarks, PAMF on the 12x8 SPEC PET) under a live
:class:`~repro.obs.Telemetry`, replays a slice of the same trace through
:class:`~repro.serve.service.SchedulerCore` so serve admission is traced too, and
asserts that

* the run was actually observed: spans exist for engine mapping events,
  kernel calls, ScoreTable fills and serve admissions, and the engine
  event counters match the trace size;
* the exported Chrome trace file loads back as JSON and contains those
  span families (the artefact a developer would open in ``about:tracing``
  or Perfetto);
* the tracing never perturbed the trial: an untraced run of the same
  seeds produces an identical task outcome signature.

Artefacts (CI uploads all three):

* ``obs_trace.json`` — Chrome trace-event file of the traced run,
* ``obs_snapshot.json`` — flat counters/gauges/timings snapshot,
* ``BENCH_obs.json`` — headline numbers (tasks, spans, wall seconds).

Usage::

    python scripts/obs_smoke.py [--tasks N] [--serve-tasks N] [--out-dir D]

Exit status 1 (with the failed check) on any assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.heuristics import make_heuristic  # noqa: E402
from repro.obs import (  # noqa: E402
    Telemetry,
    snapshot,
    use_telemetry,
    write_chrome_trace,
    write_snapshot,
)
from repro.pet.builders import build_spec_pet  # noqa: E402
from repro.serve.service import SchedulerCore  # noqa: E402
from repro.simulator.engine import simulate  # noqa: E402
from repro.workload.scale import (  # noqa: E402
    SCALE_TRACE_SEED,
    ScaleTraceConfig,
    generate_scale_trace,
)


def _signature(result) -> tuple:
    return tuple(
        (t.task_id, t.status.value, t.machine, t.mapped_at, t.exec_start, t.exec_end)
        for t in result.tasks
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=2000, help="scale-trace tasks")
    parser.add_argument(
        "--serve-tasks", type=int, default=100, help="tasks replayed through serve"
    )
    parser.add_argument("--out-dir", default=".", help="artefact directory")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)

    pet = build_spec_pet(rng=SCALE_TRACE_SEED)
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=args.tasks), rng=SCALE_TRACE_SEED, pet=pet
    )

    def run_trial():
        heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
        return simulate(pet, heuristic, trace, rng=SCALE_TRACE_SEED)

    telemetry = Telemetry()
    started = time.perf_counter()
    with use_telemetry(telemetry):
        traced_result = run_trial()

        core = SchedulerCore(
            pet,
            make_heuristic("PAMF", num_task_types=pet.num_task_types),
            rng=SCALE_TRACE_SEED,
        )
        for spec in trace.tasks[: args.serve_tasks]:
            core.submit(spec)
        core.close()
    traced_seconds = time.perf_counter() - started

    untraced_result = run_trial()
    if _signature(traced_result) != _signature(untraced_result):
        print("FAIL: tracing perturbed the scale trial", file=sys.stderr)
        return 1

    span_names = {name for name, *_ in telemetry.spans}
    required = {
        "engine.mapping_event": lambda n: n.startswith("engine.mapping_event."),
        "kernel call": lambda n: n.startswith("kernel."),
        "score_table.fill": lambda n: n == "score_table.fill",
        "serve.admission": lambda n: n == "serve.admission",
    }
    for label, match in required.items():
        if not any(match(name) for name in span_names):
            print(f"FAIL: no {label} span recorded", file=sys.stderr)
            return 1

    arrivals = telemetry.counters.get("engine.events.arrival", 0)
    # The simulate() run sees every trace task; the serve replay adds its
    # slice on top of the same registry.
    expected_arrivals = args.tasks + min(args.serve_tasks, args.tasks)
    if arrivals != expected_arrivals:
        print(
            f"FAIL: engine.events.arrival={arrivals}, expected {expected_arrivals}",
            file=sys.stderr,
        )
        return 1

    trace_path = write_chrome_trace(telemetry, out_dir / "obs_trace.json")
    snapshot_path = write_snapshot(telemetry, out_dir / "obs_snapshot.json")

    document = json.loads(trace_path.read_text())
    exported = {e["name"] for e in document["traceEvents"] if e.get("ph") == "X"}
    for label, match in required.items():
        if not any(match(name) for name in exported):
            print(f"FAIL: Chrome trace missing {label} spans", file=sys.stderr)
            return 1

    snap = snapshot(telemetry)
    bench = {
        "tasks": args.tasks,
        "serve_tasks": args.serve_tasks,
        "traced_seconds": round(traced_seconds, 3),
        "us_per_task": round(traced_seconds / args.tasks * 1e6, 1),
        "spans_recorded": len(telemetry.spans),
        "spans_dropped": telemetry.dropped_spans,
        "trace_events": len(document["traceEvents"]),
        "mapping_events": snap["counters"].get("engine.mapping_events", 0),
        "serve_admissions": snap["counters"].get("serve.submitted", 0),
        "robustness_percent": round(
            traced_result.robustness_percent(warmup=20, cooldown=20), 2
        ),
    }
    bench_path = out_dir / "BENCH_obs.json"
    bench_path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")

    print(f"obs smoke OK: {bench}")
    print(f"artefacts: {trace_path}, {snapshot_path}, {bench_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
