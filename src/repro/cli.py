"""Command-line interface for the reproduction.

Six subcommands cover the common workflows:

``simulate``
    Run one workload trial with a chosen heuristic and print the headline
    metrics (robustness, cost, outcome breakdown).

``figure``
    Regenerate one of the paper's evaluation figures (4-9) and print the
    table of series; optionally write text/CSV/JSON artefacts.

``sweep``
    Regenerate one or more figures through the :mod:`repro.sweep`
    orchestration subsystem: trials fan out over ``--jobs`` worker
    processes, per-point progress streams to stderr, and completed points
    are cached under ``--cache-dir`` so interrupted or repeated sweeps
    resume instantly.

``trace``
    Work with recorded workload traces: ``record`` synthesises a trace to
    a JSON file, ``inspect`` summarises one, and ``replay`` runs one
    through the sweep/cache pipeline with chosen heuristics (every
    heuristic replays the identical arrivals — the paper's paired
    protocol).

``cache``
    Observe and maintain a result cache: ``stats`` (entries, bytes, kernel
    versions) and ``gc`` (drop artefacts from stale kernel versions).

``serve``
    The online scheduler service: ``run`` hosts the admission loop on a
    Unix socket or TCP port until interrupted (``--workers N`` shards
    submissions across N engine-worker processes behind one socket, and
    ``--inbox-limit`` bounds the admission queue so overload is answered
    with explicit ``accepted=false`` rejections), ``submit`` replays a
    recorded trace (or a single task) into a running service and prints
    the streamed decisions, and ``bench`` drives a fresh service at
    several arrival-rate multipliers, checks the decision stream against
    an offline replay (per shard when sharded), and writes the
    ``BENCH_serve.json`` artefact.

Examples::

    python -m repro.cli simulate --heuristic PAM --tasks 500 --span 2500
    python -m repro.cli figure 7 --trials 2
    python -m repro.cli figure 9 --trials 3 --output-dir results/
    python -m repro.cli sweep 4 7 --jobs 4 --cache-dir results/cache
    python -m repro.cli sweep 9 --trace examples/transcoding_660.trace.json
    python -m repro.cli cache stats --cache-dir results/cache
    python -m repro.cli trace record --builder transcoding-660 --out my.trace.json
    python -m repro.cli trace inspect examples/transcoding_660.trace.json
    python -m repro.cli trace replay examples/transcoding_660.trace.json \
        --heuristics PAMF MM --jobs 4 --cache-dir results/cache
    python -m repro.cli serve run --listen /tmp/repro-serve.sock
    python -m repro.cli serve run --listen tcp:127.0.0.1:7077 --workers 4
    python -m repro.cli serve submit --connect /tmp/repro-serve.sock \
        --trace examples/transcoding_660.trace.json --tasks 50 --rate 10
    python -m repro.cli serve submit --connect tcp:127.0.0.1:7077 --task 1 0 5 400
    python -m repro.cli serve bench --trace examples/transcoding_660.trace.json \
        --rates 10 100 1000 --out BENCH_serve.json
    python -m repro.cli serve bench --transport tcp --workers 2 \
        --out BENCH_serve_shard2.json
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable, Sequence

from . import (
    WorkloadConfig,
    build_spec_pet,
    build_transcoding_pet,
    generate_workload,
    make_heuristic,
    simulate,
)
from .heuristics.registry import HEURISTIC_NAMES
from .simulator.engine import SimulatorConfig
from .utils.tables import format_table
from .workload import (
    TRACE_BUILDERS,
    build_named_trace,
    load_trace,
    save_trace,
    trace_content_hash,
)

__all__ = ["main", "build_parser"]

#: Figure number -> CSV headers (the driver is ``repro.experiments.run_fig<N>``).
_FIGURES: dict[int, list[str]] = {
    4: ["lambda", "default robustness %", "default ci95", "schmitt robustness %", "schmitt ci95"],
    5: ["drop threshold %", "defer threshold %", "robustness %", "ci95"],
    6: ["level", "fairness factor %", "variance of type completion %", "robustness %", "ci95"],
    7: ["level", "heuristic", "robustness %", "ci95"],
    8: ["level", "heuristic", "total cost", "robustness %", "cost / percent on-time"],
    9: ["level", "heuristic", "robustness %", "ci95"],
}

def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return jobs


def _non_negative_int(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return count


def _positive_float(value: str) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Robust Dynamic Resource Allocation via "
        "Probabilistic Task Pruning in Heterogeneous Computing Systems'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim = subparsers.add_parser("simulate", help="run one workload trial")
    sim.add_argument("--heuristic", default="PAM", choices=sorted(HEURISTIC_NAMES))
    sim.add_argument("--tasks", type=int, default=500, help="number of arriving tasks")
    sim.add_argument("--span", type=int, default=2500, help="arrival window in time units")
    sim.add_argument("--beta", type=float, default=1.5, help="deadline slack coefficient")
    sim.add_argument("--seed", type=int, default=2019)
    sim.add_argument(
        "--workload",
        choices=("spec", "transcoding"),
        default="spec",
        help="which PET matrix / system to simulate",
    )
    sim.add_argument("--warmup", type=int, default=50, help="tasks trimmed from the head")
    sim.add_argument("--cooldown", type=int, default=50, help="tasks trimmed from the tail")
    sim.add_argument(
        "--batch-window",
        type=_non_negative_int,
        default=0,
        help="batched scheduling-round window in time units "
        "(0 = map at every event, the paper's protocol)",
    )
    _add_obs_arguments(sim)

    fig = subparsers.add_parser("figure", help="regenerate one evaluation figure")
    fig.add_argument("number", type=int, choices=sorted(_FIGURES), help="figure number (4-9)")
    _add_figure_run_arguments(fig)

    sweep = subparsers.add_parser(
        "sweep", help="regenerate figures in parallel with result caching"
    )
    sweep.add_argument(
        "numbers",
        type=int,
        nargs="+",
        choices=sorted(_FIGURES),
        help="figure numbers to sweep (4-9)",
    )
    _add_figure_run_arguments(sweep)
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress on stderr"
    )

    cache = subparsers.add_parser(
        "cache", help="observe or maintain a content-addressed result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entries, bytes, and kernel-version breakdown"
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="drop artefacts from stale kernel versions"
    )
    cache_gc.add_argument(
        "--kernel-version",
        default=None,
        help="kernel version to KEEP (default: the current "
        "repro.core.batch.KERNEL_VERSION); every artefact with another "
        "engine tag is removed",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true", help="report what would be removed, remove nothing"
    )
    for sub in (cache_stats, cache_gc):
        sub.add_argument("--cache-dir", required=True, help="result-cache root directory")

    trace = subparsers.add_parser("trace", help="record, inspect, or replay workload traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser("record", help="synthesise a trace and save it to JSON")
    record.add_argument("--out", required=True, help="output trace file (JSON)")
    source = record.add_mutually_exclusive_group()
    source.add_argument(
        "--builder",
        choices=sorted(TRACE_BUILDERS),
        default=None,
        help="named trace builder (e.g. the 660-task transcoding reference shape)",
    )
    source.add_argument(
        "--workload",
        choices=("spec", "transcoding"),
        default=None,
        help="synthesise a Section VI-B workload on this PET instead",
    )
    record.add_argument("--tasks", type=int, default=None, help="number of arriving tasks")
    record.add_argument(
        "--span",
        type=int,
        default=None,
        help="arrival window in time units (synthetic workloads only; default 3000)",
    )
    record.add_argument(
        "--beta",
        type=float,
        default=None,
        help="deadline slack coefficient (synthetic workloads only; default 1.5)",
    )
    record.add_argument("--seed", type=int, default=2019)

    inspect = trace_sub.add_parser("inspect", help="summarise a recorded trace file")
    inspect.add_argument("file", help="trace file written by 'trace record' or save_trace")

    replay = trace_sub.add_parser(
        "replay", help="replay a recorded trace through the sweep/cache pipeline"
    )
    replay.add_argument("file", help="trace file to replay")
    replay.add_argument(
        "--heuristics",
        nargs="+",
        default=["PAMF", "MM"],
        choices=sorted(HEURISTIC_NAMES),
        help="heuristics to compare on the identical replayed arrivals",
    )
    replay.add_argument(
        "--pet",
        choices=("spec", "transcoding"),
        default="transcoding",
        help="PET matrix / system the trace's task types index into",
    )
    replay.add_argument("--trials", type=int, default=2, help="execution-sampling trials")
    replay.add_argument("--seed", type=int, default=2019)
    replay.add_argument(
        "--batch-window",
        type=_non_negative_int,
        default=0,
        help="batched scheduling-round window in time units (0 = per-event)",
    )
    replay.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    replay.add_argument("--cache-dir", default=None, help="content-addressed result cache root")
    replay.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress on stderr"
    )
    _add_obs_arguments(replay)

    serve = subparsers.add_parser(
        "serve", help="online scheduler service: host it, feed it, or benchmark it"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="host the admission service on a Unix socket or TCP port until interrupted"
    )
    serve_run.add_argument(
        "--listen",
        required=True,
        help="endpoint to serve on: a Unix socket PATH (or unix:PATH; created, "
        "removed on exit) or tcp:HOST:PORT (port 0 picks one)",
    )
    serve_run.add_argument(
        "--pet",
        choices=("spec", "transcoding"),
        default="transcoding",
        help="PET matrix / system submitted task types index into",
    )
    serve_run.add_argument(
        "--heuristic", choices=sorted(HEURISTIC_NAMES), default="PAMF",
        help="mapping heuristic the admission loop runs",
    )
    serve_run.add_argument("--seed", type=int, default=2019)
    serve_run.add_argument(
        "--batch-window",
        type=_non_negative_int,
        default=0,
        help="batched scheduling-round window in time units (0 = per-event)",
    )
    _add_obs_arguments(serve_run)
    serve_run.add_argument(
        "--drain-grace",
        type=_positive_float,
        default=5.0,
        help="seconds to let in-flight submissions drain on shutdown",
    )
    serve_run.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="engine-worker processes behind the front-end, sharded by task "
        "type (1 = single-process service)",
    )
    serve_run.add_argument(
        "--inbox-limit",
        type=_positive_int,
        default=None,
        help="bounded admission inbox (per-shard in-flight cap when sharded); "
        "submissions beyond it are answered accepted=false",
    )

    serve_submit = serve_sub.add_parser(
        "submit",
        help="replay a recorded trace (or one task) into a running service "
        "and print the streamed decisions",
    )
    serve_submit.add_argument(
        "--connect",
        required=True,
        help="endpoint of a running 'serve run': PATH, unix:PATH or tcp:HOST:PORT",
    )
    source = serve_submit.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="recorded trace file to replay")
    source.add_argument(
        "--task",
        nargs=4,
        type=int,
        metavar=("ID", "TYPE", "ARRIVAL", "DEADLINE"),
        help="submit a single task instead of a trace",
    )
    serve_submit.add_argument(
        "--tasks", type=_positive_int, default=None, help="replay only the first N trace tasks"
    )
    serve_submit.add_argument(
        "--rate", type=_positive_float, default=10.0, help="arrival-rate multiplier"
    )
    serve_submit.add_argument(
        "--time-unit",
        type=_positive_float,
        default=None,
        help="wall seconds one trace time unit spans at 1x (default 0.01)",
    )
    serve_submit.add_argument(
        "--close",
        action="store_true",
        help="finalise the run after submitting (otherwise just flush pending decisions)",
    )

    serve_bench = serve_sub.add_parser(
        "bench",
        help="load-generator benchmark: replay a trace at several arrival "
        "rates, verify against offline replay, write BENCH_serve.json",
    )
    serve_bench.add_argument(
        "--trace",
        default="examples/transcoding_660.trace.json",
        help="recorded trace file to replay",
    )
    serve_bench.add_argument(
        "--tasks", type=_positive_int, default=None, help="bench only the first N trace tasks"
    )
    serve_bench.add_argument(
        "--rates",
        nargs="+",
        type=_positive_float,
        default=[10.0, 100.0, 1000.0],
        help="arrival-rate multipliers to sweep",
    )
    serve_bench.add_argument(
        "--heuristic", choices=sorted(HEURISTIC_NAMES), default="PAMF"
    )
    serve_bench.add_argument("--pet", choices=("spec", "transcoding"), default="transcoding")
    serve_bench.add_argument("--seed", type=int, default=2019)
    serve_bench.add_argument(
        "--time-unit",
        type=_positive_float,
        default=None,
        help="wall seconds one trace time unit spans at 1x (default 0.01)",
    )
    serve_bench.add_argument(
        "--out", default="BENCH_serve.json", help="write the JSON bench report here"
    )
    serve_bench.add_argument(
        "--no-check",
        action="store_true",
        help="skip the offline replay-equivalence check",
    )
    serve_bench.add_argument(
        "--transport",
        choices=("unix", "tcp"),
        default="unix",
        help="client-facing transport the bench drives",
    )
    serve_bench.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="engine-worker processes behind the front-end (1 = single-process)",
    )
    serve_bench.add_argument(
        "--inbox-limit",
        type=_positive_int,
        default=None,
        help="shrink the admission inbox to provoke measurable backpressure "
        "(rejections are counted per rate)",
    )

    return parser


def _add_figure_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``figure`` and ``sweep`` (both run figure drivers)."""
    parser.add_argument("--trials", type=int, default=2, help="workload trials per data point")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--task-scale", type=float, default=1.0, help="scale factor on task counts")
    parser.add_argument("--output-dir", default=None, help="write text/CSV/JSON artefacts here")
    parser.add_argument(
        "--batch-window",
        type=_non_negative_int,
        default=0,
        help="batched scheduling-round window in time units (0 = per-event, "
        "the paper's protocol; folded into the result cache key)",
    )
    _add_obs_arguments(parser)
    parser.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (1 = serial)")
    parser.add_argument("--cache-dir", default=None, help="content-addressed result cache root")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay this recorded trace file instead of synthesising workloads "
        "(figure 9 only; e.g. examples/transcoding_660.trace.json)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability export options shared by the engine-running commands.

    Either flag enables the in-process telemetry registry for the whole
    command (spans, counters, timing histograms); without them the command
    runs against the no-op registry and executes bit-identical code.
    """
    parser.add_argument(
        "--obs-trace",
        default=None,
        metavar="PATH",
        help="record spans and write a Chrome trace-event JSON timeline here "
        "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--obs-snapshot",
        default=None,
        metavar="PATH",
        help="write a flat JSON snapshot of telemetry counters/gauges/timing "
        "histograms here",
    )


@contextmanager
def _obs_session(args: argparse.Namespace):
    """Scope a recording telemetry registry around one CLI command.

    No-op (the null registry stays active) unless ``--obs-trace`` or
    ``--obs-snapshot`` was given.  Exports run in a ``finally`` so an
    interrupted command (Ctrl-C on ``serve run``) still writes what it
    recorded.  Only in-process work is captured: trials executed by
    process-pool workers and sharded serve engines run in child
    processes and contribute no spans to this registry.
    """
    trace_path = getattr(args, "obs_trace", None)
    snapshot_path = getattr(args, "obs_snapshot", None)
    if trace_path is None and snapshot_path is None:
        yield None
        return
    from .obs import Telemetry, use_telemetry, write_chrome_trace, write_snapshot

    telemetry = Telemetry()
    try:
        with use_telemetry(telemetry):
            yield telemetry
    finally:
        if trace_path is not None:
            path = write_chrome_trace(telemetry, trace_path)
            print(f"wrote obs trace: {path}", file=sys.stderr)
        if snapshot_path is not None:
            path = write_snapshot(telemetry, snapshot_path)
            print(f"wrote obs snapshot: {path}", file=sys.stderr)


def _command_simulate(args: argparse.Namespace) -> int:
    if args.workload == "spec":
        pet = build_spec_pet(rng=args.seed)
    else:
        pet = build_transcoding_pet(rng=args.seed)
    workload = WorkloadConfig(num_tasks=args.tasks, time_span=args.span, beta=args.beta)
    trace = generate_workload(workload, pet, rng=args.seed + 1)
    heuristic = make_heuristic(args.heuristic, num_task_types=pet.num_task_types)
    config = SimulatorConfig(batch_window=args.batch_window)
    result = simulate(pet, heuristic, trace, config=config, rng=args.seed + 2)

    print(f"heuristic          : {args.heuristic}")
    if args.batch_window:
        print(
            "engine mode        : "
            f"batched rounds (window {args.batch_window}, "
            f"{result.counters.mapping_events} mapping events)"
        )
    print(f"tasks / span       : {args.tasks} / {args.span} (load {trace.offered_load(pet):.2f}x)")
    print(
        "robustness         : "
        f"{result.robustness_percent(warmup=args.warmup, cooldown=args.cooldown):.2f}% on time"
    )
    print(f"total cost         : {result.total_cost():.3f}")
    print(
        "cost / percent     : "
        f"{result.cost_per_percent_on_time(warmup=args.warmup, cooldown=args.cooldown):.4f}"
    )
    print(
        "fairness variance  : "
        f"{result.fairness_variance(warmup=args.warmup, cooldown=args.cooldown):.2f}"
    )
    print("outcomes:")
    for outcome, count in sorted(result.status_counts().items()):
        print(f"  {outcome:<28} {count}")
    return 0


def _run_figure(
    number: int,
    args: argparse.Namespace,
    *,
    progress: Callable | None = None,
) -> None:
    from . import experiments

    config = experiments.ExperimentConfig(
        trials=args.trials,
        seed=args.seed,
        task_scale=args.task_scale,
        batch_window=args.batch_window,
    )
    extra: dict[str, object] = {}
    if getattr(args, "trace", None) is not None:
        if number != 9:
            raise SystemExit(
                f"--trace only applies to figure 9 (the transcoding replay), not figure {number}"
            )
        from .experiments.fig9_transcoding import coerce_fig9_trace

        # Validate the trace up front so only genuine trace problems turn
        # into clean exits; errors out of the run itself propagate intact.
        try:
            extra["trace"] = coerce_fig9_trace(args.trace, seed=config.seed)
        except FileNotFoundError as exc:
            raise SystemExit(f"trace file not found: {args.trace}") from exc
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    result = getattr(experiments, f"run_fig{number}")(
        config, jobs=args.jobs, cache_dir=args.cache_dir, progress=progress, **extra
    )
    print(result.to_text())
    if args.output_dir is not None:
        paths = experiments.save_figure_result(
            result, _FIGURES[number], args.output_dir, name=f"figure{number}"
        )
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")


def _command_figure(args: argparse.Namespace) -> int:
    _run_figure(args.number, args)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from .sweep import StreamReporter

    progress = None if args.quiet else StreamReporter()
    for number in args.numbers:
        _run_figure(number, args, progress=progress)
    return 0


def _trace_summary_lines(trace) -> list[str]:
    arrivals = [t.arrival for t in trace]
    slacks = [t.slack for t in trace]
    counts = trace.type_counts()
    lines = [
        f"tasks              : {len(trace)}",
        f"task types         : {trace.num_task_types} "
        f"(counts {', '.join(str(int(c)) for c in counts)})",
        f"arrival window     : {arrivals[0] if arrivals else 0} - "
        f"{arrivals[-1] if arrivals else 0} "
        f"(configured span {trace.config.time_span})",
    ]
    if slacks:
        lines.append(
            f"deadline slack     : min {min(slacks)}, max {max(slacks)}, "
            f"mean {sum(slacks) / len(slacks):.1f}"
        )
    else:
        lines.append("deadline slack     : n/a")
    lines.append(f"content sha256     : {trace_content_hash(trace)}")
    return lines


def _command_trace_record(args: argparse.Namespace) -> int:
    if args.builder is not None:
        if args.span is not None or args.beta is not None:
            raise SystemExit(
                "--span/--beta only apply to synthetic --workload recordings; "
                f"the {args.builder!r} builder fixes its own workload shape "
                "(use --seed/--tasks to vary it)"
            )
        trace = build_named_trace(args.builder, seed=args.seed, num_tasks=args.tasks)
        origin = f"builder {args.builder!r} (seed {args.seed})"
    else:
        workload_kind = args.workload or "transcoding"
        pet = (
            build_spec_pet(rng=args.seed)
            if workload_kind == "spec"
            else build_transcoding_pet(rng=args.seed)
        )
        tasks = args.tasks if args.tasks is not None else 500
        span = args.span if args.span is not None else 3000
        beta = args.beta if args.beta is not None else 1.5
        config = WorkloadConfig(num_tasks=tasks, time_span=span, beta=beta)
        trace = generate_workload(config, pet, rng=args.seed + 1)
        origin = f"synthetic {workload_kind} workload (seed {args.seed})"
    path = save_trace(trace, args.out)
    print(f"recorded {origin} -> {path}")
    for line in _trace_summary_lines(trace):
        print(line)
    return 0


def _command_trace_inspect(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    print(f"trace file         : {args.file}")
    for line in _trace_summary_lines(trace):
        print(line)
    return 0


def _command_trace_replay(args: argparse.Namespace) -> int:
    from .experiments import ExperimentConfig
    from .experiments.fig9_transcoding import TRACE_LEVEL_LABEL
    from .simulator.cost import default_prices_for
    from .sweep import (
        HeuristicSpec,
        PETSpec,
        StreamReporter,
        SweepSpec,
        TraceSpec,
        pet_for,
        run_sweep,
        trace_for,
    )

    heuristics = list(dict.fromkeys(args.heuristics))
    config = ExperimentConfig(
        trials=args.trials,
        seed=args.seed,
        batch_window=args.batch_window,
    )
    pet_spec = PETSpec(kind=args.pet, seed=config.seed)
    pet = pet_for(pet_spec)
    trace_spec = TraceSpec(path=args.file)
    try:
        # Resolved through the same per-process memo the executor uses, so
        # the run parses the file once, not once per layer.
        trace = trace_for(trace_spec)
    except FileNotFoundError:
        raise SystemExit(f"trace file not found: {args.file}")
    except ValueError as exc:
        raise SystemExit(str(exc))
    if trace.num_task_types > pet.num_task_types:
        raise SystemExit(
            f"trace uses {trace.num_task_types} task types but the {args.pet!r} "
            f"PET only has {pet.num_task_types}"
        )
    spec = SweepSpec.from_traces(
        pet=pet_spec,
        heuristics={name: HeuristicSpec(name=name) for name in heuristics},
        traces={TRACE_LEVEL_LABEL: trace_spec},
        config=config,
        machine_prices=tuple(default_prices_for(pet.machine_names)),
    )
    progress = None if args.quiet else StreamReporter()
    outcome = run_sweep(spec, jobs=args.jobs, cache_dir=args.cache_dir, progress=progress)
    rows = []
    for series in outcome.series():
        summary = series.robustness()
        rows.append([series.label, summary.mean, summary.ci95])
    print(f"replayed {args.file} ({len(trace)} tasks, {args.trials} trials each)")
    print(format_table(["series", "robustness %", "ci95"], rows))
    if args.cache_dir is not None:
        print(
            f"cache: {outcome.cache_hits} hits, {outcome.cache_misses} misses, "
            f"{outcome.executed_trials} trials executed"
        )
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from .core.batch import KERNEL_VERSION
    from .sweep import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"entries            : {stats['entries']}")
        print(f"bytes              : {stats['bytes']}")
        print(f"corrupt            : {stats['corrupt']}")
        kernels = stats["kernel_versions"]
        if kernels:
            rows = [
                [tag, count, "current" if tag == str(KERNEL_VERSION) else "stale"]
                for tag, count in kernels.items()
            ]
            print(format_table(["kernel tag", "entries", ""], rows))
        return 0
    if args.cache_command == "gc":
        keep = args.kernel_version if args.kernel_version is not None else KERNEL_VERSION
        removed, removed_bytes = cache.gc(keep_kernel_version=keep, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"{verb} {removed} artefact(s) ({removed_bytes} bytes) "
            f"not matching kernel version {keep!r}"
        )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")  # pragma: no cover


def _serve_pet(args: argparse.Namespace):
    return build_spec_pet(rng=args.seed) if args.pet == "spec" else build_transcoding_pet(rng=args.seed)


def _command_serve_run(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from .serve import build_service

    pet = _serve_pet(args)
    sim_config = SimulatorConfig(batch_window=args.batch_window)

    async def host() -> tuple[dict, BaseException | None]:
        service = build_service(
            pet,
            args.heuristic,
            args.listen,
            workers=args.workers,
            seed=args.seed + 2,
            sim_config=sim_config,
            inbox_limit=args.inbox_limit,
            drain_grace=args.drain_grace,
        )
        await service.start()
        mode = f" (batched rounds, window {args.batch_window})" if args.batch_window else ""
        if args.workers > 1:
            mode += f" [{args.workers} sharded workers]"
        print(
            f"serving {args.heuristic}{mode} on {service.endpoint} — Ctrl-C to stop",
            file=sys.stderr,
            flush=True,
        )
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, interrupted.set)
        stopper = asyncio.create_task(interrupted.wait(), name="repro-serve-signal")
        stopped = asyncio.create_task(service.wait_stopped(), name="repro-serve-stopped")
        try:
            # Until Ctrl-C, or until a client's `close` shuts the service down.
            await asyncio.wait({stopper, stopped}, return_when=asyncio.FIRST_COMPLETED)
            await service.stop(drain=True)
        finally:
            for task in (stopper, stopped):
                task.cancel()
            await asyncio.gather(stopper, stopped, return_exceptions=True)
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(signum)
        return service.metrics.snapshot(), service.failure

    snapshot, failure = asyncio.run(host())
    print(json.dumps(snapshot, indent=2))
    if failure is not None:
        print(f"service failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _command_serve_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve import replay_trace
    from .serve.loadgen import DEFAULT_TIME_UNIT_SECONDS
    from .workload.spec import TaskSpec

    if args.task is not None:
        task_id, task_type, arrival, deadline = args.task
        specs: list = [
            TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline)
        ]
    else:
        from .serve import slice_trace

        specs = slice_trace(load_trace(args.trace), args.tasks)
    time_unit = args.time_unit if args.time_unit is not None else DEFAULT_TIME_UNIT_SECONDS
    outcome = asyncio.run(
        replay_trace(
            args.connect,
            specs,
            rate=args.rate,
            time_unit_seconds=time_unit,
            close=args.close,
            progress=lambda message: print(message, file=sys.stderr, flush=True),
        )
    )
    for event in outcome.decisions:
        print(json.dumps(event, separators=(",", ":")))
    rejected_note = (
        f", {outcome.rejected} rejected under backpressure" if outcome.rejected else ""
    )
    print(
        f"submitted {outcome.submitted} task(s), received {len(outcome.decisions)} "
        f"decision(s) in {outcome.wall_seconds:.3f}s{rejected_note}",
        file=sys.stderr,
    )
    if outcome.closed is not None:
        summary = outcome.closed["summary"]
        print(
            f"run closed: robustness {summary['robustness_percent']:.2f}% on time",
            file=sys.stderr,
        )
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    from .serve import run_bench, slice_trace
    from .serve.loadgen import DEFAULT_TIME_UNIT_SECONDS

    pet = _serve_pet(args)
    trace = slice_trace(load_trace(args.trace), args.tasks)
    report = run_bench(
        pet,
        trace,
        heuristic_name=args.heuristic,
        pet_kind=args.pet,
        seed=args.seed + 2,
        rates=tuple(args.rates),
        time_unit_seconds=(
            args.time_unit if args.time_unit is not None else DEFAULT_TIME_UNIT_SECONDS
        ),
        check_offline=not args.no_check,
        transport=args.transport,
        workers=args.workers,
        inbox_limit=args.inbox_limit,
        out_path=args.out,
        progress=lambda message: print(message, file=sys.stderr, flush=True),
    )
    headers = ["rate", "decisions/s", "rejected", "p50 ms", "p95 ms", "p99 ms", "drop %"]
    rows = [
        [
            f"{rate.multiplier:g}x",
            f"{rate.decisions_per_sec:.0f}",
            f"{rate.rejected}",
            f"{rate.p50_ms:.2f}",
            f"{rate.p95_ms:.2f}",
            f"{rate.p99_ms:.2f}",
            f"{100.0 * rate.drop_rate:.1f}",
        ]
        for rate in report.rates
    ]
    print(format_table(headers, rows))
    if report.equivalent_to_offline is not None:
        print(f"replay-equivalent to offline run: {report.equivalent_to_offline}")
    print(f"wrote {args.out}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.serve_command == "run":
        with _obs_session(args):
            return _command_serve_run(args)
    if args.serve_command == "submit":
        return _command_serve_submit(args)
    if args.serve_command == "bench":
        return _command_serve_bench(args)
    raise AssertionError(f"unhandled serve command {args.serve_command!r}")  # pragma: no cover


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _command_trace_record(args)
    if args.trace_command == "inspect":
        return _command_trace_inspect(args)
    if args.trace_command == "replay":
        with _obs_session(args):
            return _command_trace_replay(args)
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        with _obs_session(args):
            return _command_simulate(args)
    if args.command == "figure":
        with _obs_session(args):
            return _command_figure(args)
    if args.command == "sweep":
        with _obs_session(args):
            return _command_sweep(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "cache":
        return _command_cache(args)
    if args.command == "serve":
        return _command_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
