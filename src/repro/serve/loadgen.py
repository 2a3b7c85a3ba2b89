"""Load generation against the scheduler service, and the serve bench.

The load generator replays a recorded workload trace against a running
scheduler service at a wall-clock arrival-rate
multiplier: task ``i`` is submitted when ``arrival_i * time_unit / rate``
wall seconds have elapsed.  Virtual time travels *with* the submissions, so
the decision stream is bit-identical at every rate — the multiplier only
controls how hard the admission loop is driven, which is exactly what the
throughput/latency curve measures.

``run_bench`` sweeps several multipliers (a fresh service per rate, same
seed), checks the decision stream against an offline
:meth:`HCSimulator.run` replay of the same trace, and writes the
machine-readable ``BENCH_serve.json`` perf artefact.  The bench drives the
service over a Unix socket or TCP (``transport=``), and a deliberately tiny
bounded inbox (``inbox_limit=``) measures the overload rejection curve —
submissions turned away with ``accepted=false`` are counted per rate, and
the equivalence check then compares the stream against an offline replay
of exactly the tasks that were *accepted*.

Only the functions that open sockets (:func:`replay_trace`,
:func:`run_bench` and the per-rate service it starts) import asyncio, the
wire protocol and the server, so :func:`slice_trace`, the report
dataclasses and :data:`DEFAULT_TIME_UNIT_SECONDS` load no network stack.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Callable, Mapping, Sequence

from ..heuristics import make_heuristic
from ..pet.matrix import PETMatrix
from ..simulator.engine import HCSimulator, SimulatorConfig
from ..workload.generator import WorkloadTrace
from .metrics import LatencyHistogram
from .service import build_core, decision_map, offline_decision_map

__all__ = [
    "BenchReport",
    "RateReport",
    "ReplayOutcome",
    "replay_trace",
    "run_bench",
    "slice_trace",
]

#: Wall seconds one trace time unit spans at rate 1x.  0.01 s/unit puts the
#: 660-task reference trace (≈3000 units) at ~30 s of real time at 1x, 3 s
#: at 10x, and engine-bound at 1000x.
DEFAULT_TIME_UNIT_SECONDS = 0.01


def slice_trace(trace: WorkloadTrace, num_tasks: int | None) -> WorkloadTrace:
    """First ``num_tasks`` arrivals of a trace (the whole trace if ``None``).

    The task-type universe is preserved so the slice still indexes the same
    PET matrix.
    """
    if num_tasks is None or num_tasks >= len(trace):
        return trace
    if num_tasks < 1:
        raise ValueError("a trace slice needs at least one task")
    return WorkloadTrace(
        tuple(trace.tasks[:num_tasks]),
        trace.config,
        num_task_types=trace.num_task_types,
    )


@dataclass(frozen=True)
class ReplayOutcome:
    """Everything one socket replay produced."""

    #: Decision event payloads, in stream order.
    decisions: tuple[dict, ...]
    #: The ``closed`` event payload (``None`` when the replay kept the
    #: service open).
    closed: dict | None
    #: Wall seconds from the first submission to the last received event.
    wall_seconds: float
    #: Tasks submitted.
    submitted: int
    #: Task ids the service turned away with ``accepted=false``
    #: (backpressure under overload); never reached the engine.
    rejected_ids: tuple[int, ...] = ()

    @property
    def rejected(self) -> int:
        return len(self.rejected_ids)


@dataclass(frozen=True)
class RateReport:
    """Throughput/latency measurements at one arrival-rate multiplier."""

    multiplier: float
    tasks: int
    decisions: int
    #: Submissions rejected with ``accepted=false`` (backpressure).
    rejected: int
    wall_seconds: float
    decisions_per_sec: float
    submitted_per_sec: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    drop_rate: float
    robustness_percent: float

    def to_payload(self) -> dict[str, float]:
        return {
            "multiplier": self.multiplier,
            "tasks": self.tasks,
            "decisions": self.decisions,
            "rejected": self.rejected,
            "wall_seconds": round(self.wall_seconds, 6),
            "decisions_per_sec": round(self.decisions_per_sec, 3),
            "submitted_per_sec": round(self.submitted_per_sec, 3),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "drop_rate": round(self.drop_rate, 6),
            "robustness_percent": round(self.robustness_percent, 6),
        }


@dataclass(frozen=True)
class BenchReport:
    """One full serve bench: several rates over one trace."""

    trace_tasks: int
    heuristic: str
    pet_kind: str
    seed: int
    time_unit_seconds: float
    rates: tuple[RateReport, ...]
    #: ``True`` when every rate's decision stream matched the offline
    #: replay; ``None`` when the check was skipped.
    equivalent_to_offline: bool | None
    #: ``unix`` or ``tcp`` — the transport the bench drove.
    transport: str = "unix"

    def to_payload(self) -> dict[str, object]:
        return {
            "schema": 1,
            "benchmark": "repro.serve",
            "trace_tasks": self.trace_tasks,
            "heuristic": self.heuristic,
            "pet": self.pet_kind,
            "seed": self.seed,
            "time_unit_seconds": self.time_unit_seconds,
            "transport": self.transport,
            "equivalent_to_offline": self.equivalent_to_offline,
            "rates": [rate.to_payload() for rate in self.rates],
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload(), indent=2) + "\n")
        return path


async def replay_trace(
    endpoint: str | Path,
    trace: WorkloadTrace,
    *,
    rate: float = 10.0,
    time_unit_seconds: float = DEFAULT_TIME_UNIT_SECONDS,
    close: bool = True,
    progress: Callable[[str], None] | None = None,
) -> ReplayOutcome:
    """Replay a trace into a running service at ``rate``x arrival speed.

    ``endpoint`` is a Unix-socket path or a ``tcp:HOST:PORT`` string (any
    notation :func:`~repro.serve.protocol.parse_endpoint` accepts).
    Submissions are paced on the wall clock (task ``i`` goes out once
    ``arrival_i * time_unit_seconds / rate`` seconds have elapsed) and the
    decision stream is collected concurrently.  With ``close=True`` the
    replay finishes the run (drain + finalise) and returns the ``closed``
    summary; otherwise it ends with a ``flush`` so the service stays open.
    Submissions the service turns away with ``accepted=false``
    (backpressure) are recorded in :attr:`ReplayOutcome.rejected_ids`, not
    treated as errors.
    """
    import asyncio

    from .protocol import decode_line, encode_line, open_endpoint, spec_to_payload

    if rate <= 0:
        raise ValueError("rate must be positive")
    if time_unit_seconds <= 0:
        raise ValueError("time_unit_seconds must be positive")
    reader, writer = await open_endpoint(endpoint)
    decisions: list[dict] = []
    rejected_ids: list[int] = []
    closed_payload: dict | None = None
    errors: list[str] = []
    finished = asyncio.Event()
    last_event_wall = time.perf_counter()

    async def collect() -> None:
        nonlocal closed_payload, last_event_wall
        while True:
            line = await reader.readline()
            if not line:
                break
            event = decode_line(line)
            last_event_wall = time.perf_counter()
            kind = event.get("event")
            if kind == "decision":
                decisions.append(event)
            elif kind == "accepted" and event.get("accepted") is False:
                rejected_ids.append(int(event.get("task_id", -1)))
            elif kind == "error":
                errors.append(str(event.get("message")))
            elif kind == "closed":
                closed_payload = event
                break
            elif kind == "flushed" and not close:
                break
        finished.set()

    collector = asyncio.create_task(collect(), name="repro-serve-collect")
    start = time.perf_counter()
    submitted = 0
    try:
        for spec in trace:
            target = start + spec.arrival * time_unit_seconds / rate
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
            await writer.drain()
            submitted += 1
            if progress is not None and submitted % 100 == 0:
                progress(f"submitted {submitted}/{len(trace)} tasks")
        writer.write(encode_line({"op": "close" if close else "flush"}))
        await writer.drain()
        await finished.wait()
    finally:
        collector.cancel()
        with_suppress_cancel = asyncio.gather(collector, return_exceptions=True)
        await with_suppress_cancel
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    if errors:
        raise RuntimeError(f"service reported {len(errors)} error(s); first: {errors[0]}")
    wall_seconds = max(last_event_wall - start, 1e-9)
    return ReplayOutcome(
        decisions=tuple(decisions),
        closed=closed_payload,
        wall_seconds=wall_seconds,
        submitted=submitted,
        rejected_ids=tuple(rejected_ids),
    )


def _rate_report(multiplier: float, outcome: ReplayOutcome) -> RateReport:
    """Distil one replay into the bench's throughput/latency row."""
    latencies = LatencyHistogram()
    first_seen: set[int] = set()
    for event in outcome.decisions:
        task_id = int(event["task_id"])
        if task_id not in first_seen:
            first_seen.add(task_id)
            latencies.record(float(event["latency_s"]))
    final = decision_map(outcome.decisions)
    dropped = sum(1 for _, status, _, _ in final.values() if status == "dropped")
    robustness = float("nan")
    if outcome.closed is not None:
        robustness = float(outcome.closed["summary"]["robustness_percent"])
    summary = latencies.summary()
    accepted = outcome.submitted - outcome.rejected
    return RateReport(
        multiplier=multiplier,
        tasks=outcome.submitted,
        decisions=len(outcome.decisions),
        rejected=outcome.rejected,
        wall_seconds=outcome.wall_seconds,
        decisions_per_sec=len(outcome.decisions) / outcome.wall_seconds,
        submitted_per_sec=outcome.submitted / outcome.wall_seconds,
        p50_ms=summary["p50_s"] * 1e3,
        p95_ms=summary["p95_s"] * 1e3,
        p99_ms=summary["p99_s"] * 1e3,
        max_ms=summary["max_s"] * 1e3,
        drop_rate=dropped / accepted if accepted else 0.0,
        robustness_percent=robustness,
    )


def _offline_map(
    pet: PETMatrix,
    heuristic_name: str,
    trace: WorkloadTrace,
    *,
    seed: int,
    sim_config: SimulatorConfig | None,
    rejected: frozenset[int] = frozenset(),
) -> dict:
    """Expected decision map: the offline replay of the *accepted* tasks."""
    specs = [spec for spec in trace if spec.task_id not in rejected]
    if not specs:
        return {}
    heuristic = make_heuristic(heuristic_name, num_task_types=pet.num_task_types)
    sim = HCSimulator(pet, heuristic, config=sim_config, rng=seed)
    return offline_decision_map(sim.run(specs))


def _check_outcome_offline(
    outcome: ReplayOutcome, expected: Mapping, *, multiplier: float
) -> None:
    """Raise ``RuntimeError`` if the stream diverged from the offline replay."""
    streamed = decision_map(outcome.decisions)
    if streamed != expected:
        raise RuntimeError(
            f"decision stream at {multiplier:g}x diverged from the offline "
            f"replay: {_first_difference(streamed, expected)}"
        )


def run_bench(
    pet: PETMatrix,
    trace: WorkloadTrace,
    *,
    heuristic_name: str,
    pet_kind: str,
    seed: int,
    rates: Sequence[float] = (10.0, 100.0, 1000.0),
    time_unit_seconds: float = DEFAULT_TIME_UNIT_SECONDS,
    sim_config: SimulatorConfig | None = None,
    check_offline: bool = True,
    transport: str = "unix",
    inbox_limit: int = 1024,
    out_path: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Measure the service's throughput/latency curve over ``rates``.

    Each multiplier gets a fresh service seeded identically, so the decision
    streams must agree across rates *and* (with ``check_offline``) with a
    batch :meth:`HCSimulator.run` — the bench doubles as the
    replay-equivalence harness.  A mismatch raises ``RuntimeError``.

    ``transport`` selects the client-facing socket (``"unix"`` or
    ``"tcp"``), and ``inbox_limit`` shrinks the admission queue to provoke
    measurable backpressure — each rate row then records how many
    submissions were turned away with ``accepted=false``, and the
    equivalence check replays only the accepted subset offline.
    """
    import asyncio

    if not rates:
        raise ValueError("at least one rate multiplier is required")
    if transport not in ("unix", "tcp"):
        raise ValueError(f"transport must be 'unix' or 'tcp', got {transport!r}")
    say = progress if progress is not None else (lambda message: None)
    baseline: dict | None = None
    if check_offline:
        baseline = _offline_map(
            pet, heuristic_name, trace, seed=seed, sim_config=sim_config
        )
        say(f"offline replay: {len(baseline)} task outcomes recorded")

    reports: list[RateReport] = []
    equivalent: bool | None = None if baseline is None else True
    for multiplier in rates:
        say(f"rate {multiplier:g}x: replaying {len(trace)} tasks")
        outcome = asyncio.run(
            _bench_one_rate(
                pet,
                trace,
                heuristic_name=heuristic_name,
                seed=seed,
                rate=float(multiplier),
                time_unit_seconds=time_unit_seconds,
                sim_config=sim_config,
                transport=transport,
                inbox_limit=inbox_limit,
            )
        )
        if baseline is not None:
            expected = baseline
            if outcome.rejected_ids:
                say(
                    f"rate {multiplier:g}x: {outcome.rejected} rejected under "
                    "backpressure; re-deriving the offline baseline for the "
                    "accepted subset"
                )
                expected = _offline_map(
                    pet,
                    heuristic_name,
                    trace,
                    seed=seed,
                    sim_config=sim_config,
                    rejected=frozenset(outcome.rejected_ids),
                )
            _check_outcome_offline(outcome, expected, multiplier=float(multiplier))
        reports.append(_rate_report(float(multiplier), outcome))
    report = BenchReport(
        trace_tasks=len(trace),
        heuristic=heuristic_name,
        pet_kind=pet_kind,
        seed=seed,
        time_unit_seconds=time_unit_seconds,
        rates=tuple(reports),
        equivalent_to_offline=equivalent,
        transport=transport,
    )
    if out_path is not None:
        report.write(out_path)
    return report


async def _bench_one_rate(
    pet: PETMatrix,
    trace: WorkloadTrace,
    *,
    heuristic_name: str,
    seed: int,
    rate: float,
    time_unit_seconds: float,
    sim_config: SimulatorConfig | None,
    transport: str = "unix",
    inbox_limit: int = 1024,
) -> ReplayOutcome:
    """One fresh service + one replay, torn down cleanly even on interrupt."""
    from .server import SchedulerService

    with TemporaryDirectory(prefix="repro-serve-") as scratch:
        if transport == "tcp":
            listen: str | Path = "tcp:127.0.0.1:0"
        else:
            listen = Path(scratch) / "serve.sock"
        service = SchedulerService(
            build_core(pet, heuristic_name, seed=seed, sim_config=sim_config),
            listen,
            inbox_limit=inbox_limit,
        )
        await service.start()
        try:
            return await replay_trace(
                service.endpoint,
                trace,
                rate=rate,
                time_unit_seconds=time_unit_seconds,
                close=True,
            )
        finally:
            await service.stop(drain=False)


def _first_difference(streamed: dict, offline: dict) -> str:
    """Human-readable first divergence between two decision maps."""
    for task_id in sorted(set(streamed) | set(offline)):
        left, right = streamed.get(task_id), offline.get(task_id)
        if left != right:
            return f"task {task_id}: streamed {left!r} vs offline {right!r}"
    return "maps have equal entries but compare unequal"
