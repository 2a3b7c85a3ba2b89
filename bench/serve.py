"""The ``serve-socket`` workload: ``repro.cli serve run`` driven over its socket.

The service runs in a child process, fresh per repetition (a service is
single-use: ``close`` drains and exits it); this process is the one client,
on one connection, with a sender thread and the receiving main thread.  One
repetition replays one trace in two phases on that connection:

``closed64``  the first ``CLOSED_TASKS`` tasks, closed loop: at most 64
              submissions unacknowledged; the next goes out when an
              ``accepted`` ack frees a slot.  Gives ``tasks_per_s`` (tasks ÷
              time from the first send to the phase's last ack).
``open200``   the last ``OPEN_TASKS`` tasks, open loop, starting once
              ``closed64`` is fully acknowledged: one submission every 5 ms
              on a fixed schedule, whatever the service is doing (≈30% of
              its capacity).  Each latency runs from the instant the submission
              was *due* to the receipt of its ``accepted`` ack, so a stall is
              charged to every submission it delays; how late the generator
              itself ran is reported as ``serve.late_send_p99_ms``.

Every repetition's decision stream must equal ``offline_decision_map`` of
an in-process ``HCSimulator.run`` over the same trace (atol=0).
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import RESULTS_DIR, ROOT, tracing
from .common import (
    HEURISTIC,
    PET_SEED,
    TAIL,
    Options,
    Outcome,
    Sample,
    floor,
    floor_sample,
    peak_rss_mb,
    percentile,
    signature,
)

CLOSED_WINDOW = 64
OPEN_INTERVAL_S = 0.005
#: Tasks per phase.  The closed phase is the cheap one (~1.2 ms a task
#: against the open phase's fixed 5 ms), so it gets the larger share: the
#: two phases then take about a second and a second and a half of the ~4 s
#: a repetition costs (service start-up is most of the rest).
CLOSED_TASKS = 800
OPEN_TASKS = 300
#: Fresh-service repetitions of the two-phase replay: one per ``REPETITION_S``
#: of the budget (6 at 26 s).  The count is fixed by the budget, not by the
#: clock, so that a slow stretch of the host costs time, not samples.
REPETITION_S = 4.0
MIN_REPETITIONS = 3
#: closed64 is timed in pieces of this many acks: acks arrive in bursts, so
#: single inter-ack gaps are not comparable between repetitions.
CLOSED_CHUNK = 50
SMOKE_TASKS = 100
SOCKET_TIMEOUT_S = 120.0


def phase_tasks(options: Options) -> tuple[int, int]:
    """Tasks of the closed and of the open phase; a repetition's trace is both."""
    if options.smoke:
        return SMOKE_TASKS // 2, SMOKE_TASKS // 2
    return CLOSED_TASKS, OPEN_TASKS


def build_inputs(options: Options):
    from repro.pet.builders import build_spec_pet
    from repro.workload.scale import ScaleTraceConfig, generate_scale_trace

    start = time.perf_counter()
    pet = build_spec_pet(rng=PET_SEED)
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=sum(phase_tasks(options))), rng=options.seed, pet=pet
    )
    return pet, trace, time.perf_counter() - start


def offline_reference(pet, trace, options: Options):
    """What ``serve run --seed PET_SEED`` must decide, computed in process."""
    from repro.heuristics.registry import make_heuristic
    from repro.simulator.engine import HCSimulator, SimulatorConfig

    sim = HCSimulator(
        pet,
        make_heuristic(HEURISTIC, num_task_types=pet.num_task_types),
        config=SimulatorConfig(kernel_backend=options.kernel_backend),
        rng=PET_SEED + 2,
    )
    return sim.run(trace)


class Service:
    """One ``repro.cli serve run`` child on a Unix socket inside the checkout."""

    def __init__(self, options: Options) -> None:
        self._options = options
        self._scratch: Path | None = None
        self._process: subprocess.Popen | None = None
        self.path = ""
        self.start_s = 0.0

    def __enter__(self) -> "Service":
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        self._scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=RESULTS_DIR))
        sock = self._scratch / "s.sock"
        command = [
            sys.executable, "-m", "repro.cli", "serve", "run",
            # Relative to the child's cwd: AF_UNIX paths are capped at ~108
            # bytes and the checkout may live anywhere.
            "--listen", f"unix:{sock.relative_to(ROOT)}",
            "--pet", "spec", "--heuristic", HEURISTIC, "--seed", str(PET_SEED),
        ]  # fmt: skip
        if self._options.kernel_backend is not None:
            command += ["--kernel-backend", self._options.kernel_backend]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        started = time.perf_counter()
        with open(self._scratch / "stderr.log", "wb") as stderr:
            self._process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr
            )
        self.path = os.path.relpath(sock)
        try:
            self._await_listening(sock)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.start_s = time.perf_counter() - started
        return self

    def _await_listening(self, sock: Path) -> None:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if self._process.poll() is not None:
                raise RuntimeError(f"serve run exited early: {self.stderr_tail()}")
            if sock.exists():
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(self.path)
                    return
                except OSError:
                    pass
                finally:
                    probe.close()
            time.sleep(0.005)
        raise RuntimeError("serve run did not start listening within 60 s")

    def stderr_tail(self) -> str:
        log = self._scratch / "stderr.log"
        return log.read_text(errors="replace")[-2000:] if log.exists() else ""

    def wait_exit(self) -> int:
        """The service exits by itself once a client's ``close`` drained it."""
        return self._process.wait(timeout=30.0)

    def __exit__(self, *exc_info) -> None:
        process = self._process
        if process is not None and process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)


@dataclass
class Replay:
    """What one two-phase replay over the socket saw."""

    ids: list[int]
    closed_tasks: int
    start_ns: int = 0
    due_ns: dict[int, int] = field(default_factory=dict)
    sent_ns: dict[int, int] = field(default_factory=dict)
    ack_ns: dict[int, int] = field(default_factory=dict)
    decisions: list[dict] = field(default_factory=list)
    closed: dict | None = None
    rejected: int = 0
    errors: list[str] = field(default_factory=list)
    duplicate_acks: int = 0
    eof: bool = False

    def _acked(self, ids) -> bool:
        return all(i in self.ack_ns for i in ids)

    def closed_chunks_ms(self) -> list[float]:
        """closed64: time per ``CLOSED_CHUNK`` acks, from the first send to the last ack."""
        ids = self.ids[: self.closed_tasks]
        if not self._acked(ids):
            return []
        ends = [*ids[CLOSED_CHUNK - 1 : -1 : CLOSED_CHUNK], ids[-1]]
        stamps = [self.start_ns, *(self.ack_ns[i] for i in ends)]
        return [(b - a) * 1e-6 for a, b in zip(stamps, stamps[1:])]

    def open_latencies_ms(self) -> list[float]:
        """open200: due → ack, in submission order."""
        ids = self.ids[self.closed_tasks :]
        if not self._acked(ids):
            return []
        return [(self.ack_ns[i] - self.due_ns[i]) * 1e-6 for i in ids]

    def open_lateness_ms(self) -> list[float]:
        ids = self.ids[self.closed_tasks :]
        return [(self.sent_ns[i] - self.due_ns[i]) * 1e-6 for i in ids if i in self.sent_ns]

    @property
    def failed(self) -> int:
        """Submissions rejected, errored, never or doubly acknowledged."""
        unacked = sum(1 for i in self.ids if i not in self.ack_ns)
        return unacked + self.duplicate_acks + (0 if self.closed is not None else 1)


def drive(path: str, trace, closed_tasks: int) -> Replay:
    """Replay ``trace`` over one connection: closed loop, then open loop."""
    from repro.serve.protocol import decode_line, encode_line, spec_to_payload

    lines = [encode_line({"op": "submit", "task": spec_to_payload(spec)}) for spec in trace]
    replay = Replay(ids=[spec.task_id for spec in trace], closed_tasks=closed_tasks)
    slots = threading.Semaphore(CLOSED_WINDOW)
    closed_phase_acked = threading.Event()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(SOCKET_TIMEOUT_S)
    sock.connect(path)

    def send_all() -> None:
        replay.start_ns = open_start = time.perf_counter_ns()
        for index, (task_id, line) in enumerate(zip(replay.ids, lines)):
            if index < closed_tasks:
                while not slots.acquire(timeout=1.0):
                    if replay.eof:
                        return
                due = time.perf_counter_ns()
            else:
                if index == closed_tasks:
                    while not closed_phase_acked.wait(timeout=1.0):
                        if replay.eof:
                            return
                    open_start = time.perf_counter_ns()
                due = open_start + int((index - closed_tasks) * OPEN_INTERVAL_S * 1e9)
                delay = (due - time.perf_counter_ns()) * 1e-9
                if delay > 0:
                    time.sleep(delay)
            replay.due_ns[task_id] = due
            replay.sent_ns[task_id] = time.perf_counter_ns()
            sock.sendall(line)
        sock.sendall(encode_line({"op": "close"}))

    with sock, sock.makefile("rb") as reader, ThreadPoolExecutor(1) as pool:
        sender = pool.submit(send_all)
        answered = 0
        try:
            for raw in reader:
                now = time.perf_counter_ns()
                event = decode_line(raw)
                kind = event.get("event")
                if kind == "decision":
                    replay.decisions.append(event)
                elif kind in ("accepted", "error"):
                    task_id = event.get("task_id")
                    if kind == "error":
                        replay.errors.append(str(event.get("message")))
                    elif event.get("accepted") is False:
                        replay.rejected += 1
                    elif task_id in replay.ack_ns:
                        replay.duplicate_acks += 1
                    else:
                        replay.ack_ns[task_id] = now
                    answered += 1
                    slots.release()
                    if answered == closed_tasks:
                        closed_phase_acked.set()
                elif kind == "closed":
                    replay.closed = event
                    break
        finally:
            replay.eof = True
        sender.result(timeout=SOCKET_TIMEOUT_S)
    return replay


def run_repetition(trace, closed_tasks: int, options: Options) -> tuple[Replay, float, int]:
    with Service(options) as service:
        replay = drive(service.path, trace, closed_tasks)
        return replay, service.start_s, service.wait_exit()


def measure(name: str, options: Options) -> Outcome:
    from repro.serve.service import decision_map, offline_decision_map

    pet, trace, build_s = build_inputs(options)
    n, (closed_tasks, _) = len(trace), phase_tasks(options)
    repetitions = 1 if options.smoke else max(
        MIN_REPETITIONS, int(options.seconds // REPETITION_S)
    )
    runs = [run_repetition(trace, closed_tasks, options) for _ in range(repetitions)]
    replays = [replay for replay, _, _ in runs]
    reference = offline_reference(pet, trace, options)
    expected = offline_decision_map(reference)

    outcome = Outcome(attempted=n * len(replays))
    outcome.failed = sum(replay.failed for replay in replays)
    outcome.checks = {
        "no_rejections_or_errors": not any(r.rejected or r.errors for r in replays),
        "stream_equals_offline_replay": all(
            decision_map(r.decisions) == expected for r in replays
        ),
        "every_task_terminal_once": all(
            r.closed is not None and sum(r.closed["status_counts"].values()) == n
            for r in replays
        ),
        "service_exit_code_zero": all(code == 0 for _, _, code in runs),
        "counts_repeat_exactly": len({len(r.decisions) for r in replays}) == 1,
        "service_reports_offline_robustness": all(
            r.closed is not None
            and r.closed["summary"]["robustness_percent"] == reference.robustness_percent()
            for r in replays
        ),
    }
    if outcome.failed:
        raise RuntimeError(
            f"serve-socket: {outcome.failed} of {outcome.attempted} submissions failed "
            f"(errors: {[r.errors[:1] for r in replays]})"
        )
    gaps = [r.closed_chunks_ms() for r in replays]
    latencies = [r.open_latencies_ms() for r in replays]
    starts = [start_s for _, start_s, _ in runs]
    outcome.metrics = {
        "tasks_per_s": floor_sample("1/s", gaps, lambda ms: closed_tasks / (sum(ms) * 1e-3)),
        "latency_p50_ms": floor_sample("ms", latencies, lambda ms: percentile(ms, 50)),
        "latency_p90_ms": floor_sample("ms", latencies, lambda ms: percentile(ms, TAIL)),
        "robustness_pct": Sample(
            float(replays[0].closed["summary"]["robustness_percent"]), "%"
        ),
        "peak_rss_mb": Sample(peak_rss_mb(children=True), "MiB"),
        "setup_s": Sample(
            build_s + min(starts), "s", tuple(build_s + start_s for start_s in starts)
        ),
    }
    outcome.info = {
        "tasks": n,
        "repetitions": len(runs),
        "closed64_wall_s": [sum(g) * 1e-3 for g in gaps],
        "latency_p99_ms": percentile(floor(latencies), 99),
        "signature": signature(decision_map(replays[0].decisions)),
        "serve.start_s": min(starts),
        "serve.decisions_per_task": len(replays[0].decisions) / n,
        "serve.rejected": float(sum(r.rejected for r in replays)),
        "serve.late_send_p99_ms": max(percentile(r.open_lateness_ms(), 99) for r in replays),
        "serve.closed64_ack_p50_ms": min(
            percentile(
                [(r.ack_ns[i] - r.due_ns[i]) * 1e-6 for i in r.ids[:closed_tasks]], 50
            )
            for r in replays
        ),
    }
    return outcome


def trace_layers(name: str, options: Options) -> Outcome:
    """In-process ``SchedulerCore.submit`` over the same trace, traced."""
    from repro.heuristics.registry import make_heuristic
    from repro.obs.telemetry import Telemetry, use_telemetry
    from repro.serve.service import SchedulerCore, decision_map, offline_decision_map
    from repro.simulator.engine import SimulatorConfig

    pet, trace, _ = build_inputs(options)
    config = SimulatorConfig(kernel_backend=options.kernel_backend)

    def replay(telemetry):
        heuristic = make_heuristic(HEURISTIC, num_task_types=pet.num_task_types)
        if telemetry is not None:
            heuristic = tracing.TimedHeuristic(heuristic, telemetry)
        core = SchedulerCore(pet, heuristic, config=config, rng=PET_SEED + 2)
        decisions, submit_us = [], []
        start = time.perf_counter_ns()
        for spec in trace:
            before = time.perf_counter_ns()
            decisions += core.submit(spec)
            submit_us.append((time.perf_counter_ns() - before) * 1e-3)
        decisions += core.close()
        wall_ns = time.perf_counter_ns() - start
        if telemetry is not None:
            telemetry.add_span(tracing.ROOT_SPAN, start, wall_ns)
        return wall_ns * 1e-9, submit_us, decisions, heuristic

    untraced = [replay(None) for _ in range(1 if options.smoke else 3)]
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        wall_s, submit_us, decisions, heuristic = replay(telemetry)
    expected = offline_decision_map(offline_reference(pet, trace, options))

    outcome = Outcome(attempted=len(trace))
    outcome.checks = {
        "traced_equals_untraced": decision_map(decisions) == decision_map(untraced[-1][2]),
        "stream_equals_offline_replay": decision_map(decisions) == expected,
    }
    outcome.failed = len(trace) - len(decision_map(decisions))
    best_untraced = min(untraced, key=lambda item: item[0])
    layers = tracing.layer_metrics(
        telemetry, [heuristic], tasks=len(trace), untraced_s=best_untraced[0]
    )
    layers["serve.core_submit_us_p50"] = percentile(best_untraced[1], 50)
    layers["serve.core_submit_us_p99"] = percentile(best_untraced[1], 99)
    outcome.info = {
        "telemetry": telemetry,
        "layers": layers,
        "traced_wall_s": wall_s,
        "signature": signature(decision_map(decisions)),
        "core_us_per_task": best_untraced[0] / len(trace) * 1e6,
    }
    return outcome
