"""The online scheduler service: admission core plus asyncio socket server.

Two layers, deliberately separable:

:class:`SchedulerCore`
    Synchronous, externally-clocked admission engine.  ``submit()`` is the
    in-process API: it advances the simulator's virtual clock to the
    submission watermark, injects the task, and returns every decision the
    engine produced on the way.  Virtual time comes from the submissions
    themselves (each carries its arrival instant), so wall-clock pacing
    never influences decisions — the property the replay-equivalence suite
    pins: streaming a trace in arrival order yields decisions bit-identical
    to an offline :meth:`HCSimulator.run` of the same trace.

:class:`SchedulerService`
    The asyncio layer: a JSON-lines server (Unix socket or TCP, same wire
    protocol) whose one admission loop serialises all client submissions
    into the core and streams decision events back to every connected
    client.  The inbox between the client handlers and the admission loop
    is *bounded*: when it is full, further submissions are answered with an
    explicit ``{"event": "accepted", "accepted": false}`` rejection instead
    of queueing without limit — overload degrades into a measured rejection
    rate, not unbounded memory growth.  Graceful shutdown drains in-flight
    submissions, closes the socket, and leaves no orphaned tasks.

Watermark semantics: when a submission carries arrival time ``t`` the core
first processes every pending event *strictly before* ``t``, then holds the
time-``t`` batch open — later submissions with the same arrival instant
still join the same mapping event, exactly as they would in batch replay.
``flush()`` force-processes the held instant; ``close()`` drains everything
and finalises the run.

Rejections (a task type outside the PET, duplicate id, late arrival,
malformed payload, overload) leave the live system untouched: a submission
is validated *before* the virtual clock advances on its behalf, so a
rejected submit changes neither the engine frontier nor the decision
stream.  That check is :meth:`SchedulerCore.admit`, and it alone decides
acceptance: the service answers ``accepted`` as soon as it passes, before
the engine advances, and only then runs the scheduling the arrival
releases.  A failure past that
point is internal and fatal to the service, never a per-task ``error``.
Submissions that queued up meanwhile are admitted as one *run*: one reply
write per client before the run's scheduling, one decision broadcast after
it (see :meth:`SchedulerService._submit_run`).
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..heuristics import make_heuristic
from ..obs.export import snapshot as obs_snapshot
from ..obs.telemetry import active as obs_active
from ..pet.matrix import PETMatrix
from ..simulator.engine import HCSimulator, MappingHeuristicProtocol, SimulatorConfig
from ..simulator.mapping import MappingDecision
from ..simulator.metrics import SimulationResult
from ..simulator.task import Task, TaskStatus
from ..workload.spec import TaskSpec
from .metrics import ServiceMetrics
from .protocol import (
    MAX_LINE_BYTES,
    OVERLONG_LINE_ERROR,
    decision_to_payload,
    decode_line,
    encode_line,
    format_endpoint,
    parse_endpoint,
    spec_from_payload,
)

__all__ = [
    "Decision",
    "SchedulerCore",
    "SchedulerService",
    "build_core",
    "decision_map",
    "offline_decision_map",
]


@dataclass(frozen=True)
class Decision:
    """One streamed decision event concerning one task."""

    #: Monotone per-service sequence number (stream order).
    seq: int
    task_id: int
    #: ``assigned`` | ``completed`` | ``dropped``.
    action: str
    #: Virtual (trace) time the decision happened at.
    time: int
    #: Wall seconds from the task's submission to this event.
    latency_s: float
    #: Machine index, for ``assigned`` events.
    machine: int | None = None
    #: Drop reason, for ``dropped`` events.
    reason: str | None = None
    #: Deadline outcome, for ``completed`` events.
    on_time: bool | None = None


class SchedulerCore:
    """Synchronous admission engine over a streaming :class:`HCSimulator`."""

    def __init__(
        self,
        pet: PETMatrix,
        heuristic: MappingHeuristicProtocol,
        *,
        config: SimulatorConfig | None = None,
        machine_prices: Sequence[float] | None = None,
        rng: np.random.Generator | int | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._sim = HCSimulator(
            pet, heuristic, config=config, machine_prices=machine_prices, rng=rng
        )
        self._sim.observer = self
        self._clock = clock
        self.metrics = ServiceMetrics()
        self._pending: list[Decision] = []
        self._submit_wall: dict[int, float] = {}
        self._first_decided: set[int] = set()
        self._watermark: int | None = None
        self._seq = 0
        self._closed = False
        self._result: SimulationResult | None = None
        self._sim.begin_stream()

    # ------------------------------------------------------------------
    # Admission API (the in-process ``submit()`` surface).
    # ------------------------------------------------------------------
    def submit(self, spec: TaskSpec, *, received: float | None = None) -> list[Decision]:
        """Admit one task; returns the decisions its arrival unlocked.

        ``received`` is the wall instant the submission entered the service
        (defaults to now) — the anchor of the task's admission latency.

        Raises
        ------
        RuntimeError
            If the service is already closed.
        ValueError
            If the task duplicates an id or arrives before the processed
            virtual-time frontier (a "late" submission).  Rejections are
            counted in :attr:`metrics` and leave the live system untouched:
            validation happens before the virtual clock advances, so a
            rejected submit changes neither the engine frontier nor the
            decision stream.
        """
        received = self._clock() if received is None else received
        obs = obs_active()
        if obs.enabled:
            start_ns = time.perf_counter_ns()
        self.admit(spec)
        if self._watermark is not None and spec.arrival > self._watermark:
            # A later instant: every pending event before it is now safe to
            # process — no future submission may precede this arrival.
            self._sim.advance_until(spec.arrival)
        self._sim.inject_task(spec)
        self._submit_wall[spec.task_id] = received
        if self._watermark is None or spec.arrival > self._watermark:
            self._watermark = spec.arrival
        self.metrics.submitted += 1
        decisions = self.take_pending()
        if obs.enabled:
            obs.add_span(
                "serve.admission",
                start_ns,
                time.perf_counter_ns() - start_ns,
                task=spec.task_id,
                decisions=len(decisions),
            )
            obs.count("serve.submitted")
        return decisions

    def admit(self, spec: TaskSpec) -> None:
        """The admission check alone: would :meth:`submit` take ``spec`` now?

        Raises the errors :meth:`submit` raises for a rejected submission —
        ``RuntimeError`` once closed, ``ValueError`` for a duplicate id or a
        late arrival, counted in :attr:`metrics` — and touches nothing else.
        A submission that passes is one :meth:`submit` injects: the virtual
        clock then advances only through events strictly before its arrival,
        which no later check depends on.
        """
        if self._closed:
            raise RuntimeError("the scheduler service is closed")
        # Validate *before* the virtual clock moves: a rejected submission
        # (duplicate id, late arrival) must not advance the frontier or fire
        # mapping events on its way out — rejections leave the live system
        # untouched.
        try:
            self._sim.validate_inject(spec)
        except ValueError:
            self.metrics.rejected += 1
            obs_active().count("serve.rejected")
            raise

    def admissible(self, spec: TaskSpec) -> bool:
        """Whether :meth:`admit` would pass ``spec`` now; nothing is counted."""
        if self._closed:
            return False
        try:
            self._sim.validate_inject(spec)
        except ValueError:
            return False
        return True

    def flush(self) -> list[Decision]:
        """Force-process the held watermark instant (end-of-burst)."""
        if self._closed:
            raise RuntimeError("the scheduler service is closed")
        if self._watermark is not None:
            self._sim.advance_until(self._watermark + 1)
        return self.take_pending()

    def close(self) -> list[Decision]:
        """Drain all remaining virtual time and finalise the run."""
        if self._closed:
            raise RuntimeError("the scheduler service is closed")
        self._result = self._sim.finish_stream()
        self._closed = True
        return self.take_pending()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def result(self) -> SimulationResult:
        """The finalised run; only available after :meth:`close`."""
        if self._result is None:
            raise RuntimeError("close() the service before reading its result")
        return self._result

    # ------------------------------------------------------------------
    # EngineObserver callbacks (the decision stream's source).
    # ------------------------------------------------------------------
    def on_assigned(self, task: Task, machine_index: int, now: int) -> None:
        self.metrics.assigned += 1
        self._emit(task.task_id, "assigned", time=now, machine=machine_index)

    def on_terminal(self, task: Task) -> None:
        if task.status is TaskStatus.COMPLETED:
            self.metrics.completed += 1
            self._emit(
                task.task_id,
                "completed",
                time=int(task.exec_end if task.exec_end is not None else 0),
                on_time=task.on_time,
            )
        else:
            self.metrics.dropped += 1
            self._emit(
                task.task_id,
                "dropped",
                time=int(task.dropped_at if task.dropped_at is not None else 0),
                reason=task.drop_reason.value if task.drop_reason is not None else None,
            )
        # Terminal means no further event can concern this task: prune its
        # per-task bookkeeping.  The engine forgets its Task here too, so a
        # long-lived service holds objects for in-flight tasks only; a
        # finished task costs one row of typed outcome columns (82 bytes)
        # plus its id in the engine's set of injected ids.
        self._submit_wall.pop(task.task_id, None)
        self._first_decided.discard(task.task_id)

    def on_mapping_event(self, now: int, decision: MappingDecision) -> None:
        self.metrics.mapping_events += 1

    # ------------------------------------------------------------------
    def _emit(
        self,
        task_id: int,
        action: str,
        *,
        time: int,
        machine: int | None = None,
        reason: str | None = None,
        on_time: bool | None = None,
    ) -> None:
        wall = self._clock()
        received = self._submit_wall.get(task_id)
        latency = max(0.0, wall - received) if received is not None else 0.0
        if task_id not in self._first_decided:
            self._first_decided.add(task_id)
            self.metrics.admission.record(latency)
        self.metrics.decisions += 1
        self._pending.append(
            Decision(
                seq=self._seq,
                task_id=task_id,
                action=action,
                time=time,
                latency_s=latency,
                machine=machine,
                reason=reason,
                on_time=on_time,
            )
        )
        self._seq += 1

    def take_pending(self) -> list[Decision]:
        """Drain decisions emitted since the last drain.

        ``submit``/``flush``/``close`` drain on the way out, so this is
        normally empty — it exists for error paths: any layer that catches
        an exception from the core must still collect (and broadcast) the
        decisions produced before the failure, or they would be stranded
        and misattributed to the next unrelated request.
        """
        drained, self._pending = self._pending, []
        return drained


def build_core(
    pet: PETMatrix,
    heuristic: str,
    *,
    seed: int,
    sim_config: SimulatorConfig | None = None,
) -> SchedulerCore:
    """The core ``serve run`` and the serve bench host, from a heuristic name."""
    return SchedulerCore(
        pet,
        make_heuristic(heuristic, num_task_types=pet.num_task_types),
        config=sim_config,
        rng=seed,
    )


# ----------------------------------------------------------------------
# Replay-equivalence views.
# ----------------------------------------------------------------------
def decision_map(
    decisions: Iterable[Decision | Mapping],
) -> dict[int, tuple[int | None, str, str | None, bool]]:
    """Final per-task outcome of a decision stream.

    Accepts :class:`Decision` objects or their wire payloads.  The value is
    ``(machine, status, drop_reason, on_time)`` — exactly the fields
    :func:`offline_decision_map` extracts from a batch
    :class:`~repro.simulator.metrics.SimulationResult`, so equality between
    the two maps is the service's replay-equivalence criterion.
    """
    final: dict[int, dict] = {}
    for item in decisions:
        if isinstance(item, Decision):
            fields = {
                "task_id": item.task_id,
                "action": item.action,
                "machine": item.machine,
                "reason": item.reason,
                "on_time": item.on_time,
            }
        else:
            if item.get("event", "decision") != "decision":
                continue
            fields = {
                "task_id": item["task_id"],
                "action": item["action"],
                "machine": item.get("machine"),
                "reason": item.get("reason"),
                "on_time": item.get("on_time"),
            }
        entry = final.setdefault(
            int(fields["task_id"]),
            {"machine": None, "status": None, "reason": None, "on_time": False},
        )
        if fields["action"] == "assigned":
            entry["machine"] = int(fields["machine"])
        elif fields["action"] == "completed":
            entry["status"] = TaskStatus.COMPLETED.value
            entry["on_time"] = bool(fields["on_time"])
        elif fields["action"] == "dropped":
            entry["status"] = TaskStatus.DROPPED.value
            entry["reason"] = fields["reason"]
    return {
        task_id: (e["machine"], e["status"], e["reason"], e["on_time"])
        for task_id, e in final.items()
    }


def offline_decision_map(
    result: SimulationResult,
) -> dict[int, tuple[int | None, str, str | None, bool]]:
    """The same per-task outcome view, from a batch simulation result.

    Read through ``tolist()``: the values are Python ints and bools, whose
    ``repr`` (hashed by the decision digests) a NumPy scalar would change.
    """
    outcomes = result.outcomes
    return {
        task_id: (
            machine,
            status.value,
            reason.value if reason is not None else None,
            on_time,
        )
        for task_id, machine, status, reason, on_time in zip(
            outcomes.values("task_id"),
            outcomes.values("machine"),
            outcomes.values("status"),
            outcomes.values("drop_reason"),
            outcomes.on_time.tolist(),
        )
    }


# ----------------------------------------------------------------------
# The asyncio socket service.
# ----------------------------------------------------------------------
class SchedulerService:
    """JSON-lines admission service over a Unix socket or TCP.

    ``listen`` accepts a filesystem path / ``unix:PATH`` (Unix socket) or
    ``tcp:HOST:PORT`` (TCP; port ``0`` binds an ephemeral port, read the
    bound address back from :attr:`endpoint` after :meth:`start`).  Each
    connection gets a read loop; one admission loop owns the core:
    submissions from every connection are funnelled through a *bounded*
    :class:`asyncio.Queue`, processed in arrival order — those already
    queued together, as one run — and the resulting decision events are
    broadcast to every connected client.  When the inbox is full a further
    ``submit`` is answered with
    ``{"event": "accepted", "accepted": false, "reason": "overloaded"}``
    and never enqueued — backpressure keeps the service's memory bounded
    under overload (control ops still queue, applying natural flow control
    to their connection).  ``stop()`` drains in-flight submissions first
    (bounded by ``drain_grace`` seconds), then closes the socket and removes
    its path — no orphaned asyncio task survives it.
    """

    def __init__(
        self,
        core: SchedulerCore,
        listen: str | Path,
        *,
        drain_grace: float = 5.0,
        inbox_limit: int = 1024,
    ) -> None:
        self._endpoint = parse_endpoint(listen)
        if inbox_limit < 1:
            raise ValueError("inbox_limit must be at least 1")
        #: Socket path for Unix-socket services; ``None`` over TCP.
        self.socket_path = Path(self._endpoint[1]) if self._endpoint[0] == "unix" else None
        self.drain_grace = float(drain_grace)
        self.core = core
        #: The core's counters, which are the service's own.
        self.metrics = core.metrics
        self.inbox_limit = int(inbox_limit)
        #: The exception that brought the service down, if any — a loud
        #: record of an ungraceful shutdown.
        self.failure: BaseException | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        #: One read-loop task per connection, which ``stop()`` ends itself.
        self._handlers: set[asyncio.Task] = set()
        self._inbox: asyncio.Queue | None = None
        self._admission: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        self._stopping = False
        self._stopper: asyncio.Task | None = None

    @property
    def endpoint(self) -> str:
        """The client-facing endpoint string (actual bound port over TCP)."""
        return format_endpoint(self._endpoint)

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("the service is already started")
        try:
            self._inbox = asyncio.Queue(maxsize=self.inbox_limit)
            self._admission = asyncio.create_task(
                self._admission_loop(), name="repro-serve-admission"
            )
            if self._endpoint[0] == "unix":
                assert self.socket_path is not None
                self.socket_path.parent.mkdir(parents=True, exist_ok=True)
                if self.socket_path.exists():
                    self.socket_path.unlink()
                self._server = await asyncio.start_unix_server(
                    self._accept, path=str(self.socket_path), limit=MAX_LINE_BYTES
                )
            else:
                self._server = await asyncio.start_server(
                    self._accept,
                    host=self._endpoint[1],
                    port=self._endpoint[2],
                    limit=MAX_LINE_BYTES,
                )
                bound = self._server.sockets[0].getsockname()
                self._endpoint = ("tcp", bound[0], bound[1])
        except BaseException:
            # Nothing a failed start brought up may outlive it.
            await self.stop(drain=False)
            raise

    async def wait_stopped(self) -> None:
        """Block until the service has fully shut down."""
        await self._stopped.wait()

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown; idempotent and safe to call from any task."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        # One loop tick first: a connection sitting in the accept backlog gets
        # its handler created now, so the teardown below closes it too instead
        # of stranding the client without an EOF.
        await asyncio.sleep(0)
        if self._server is not None:
            self._server.close()
        if self._admission is not None and not self._admission.done():
            if drain:
                assert self._inbox is not None
                with suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._inbox.join(), self.drain_grace)
            self._admission.cancel()
            with suppress(asyncio.CancelledError):
                await self._admission
        for writer in list(self._writers):
            await self._discard_writer(writer)
        for handler in self._handlers:
            handler.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._server is not None:
            with suppress(OSError):
                await self._server.wait_closed()
            self._server = None
        if self.socket_path is not None:
            with suppress(OSError):
                if self.socket_path.exists():
                    self.socket_path.unlink()
        self._stopped.set()

    def _schedule_stop(self) -> None:
        """Shut down from a fresh task: ``stop()`` may cancel the caller."""
        if self._stopper is None and not self._stopping:
            self._stopper = asyncio.create_task(self.stop(drain=False))

    async def _fail(
        self, exc: BaseException, where: str, writer: asyncio.StreamWriter | None = None
    ) -> None:
        """Record, log, tell ``writer`` (or, without one, every client), shut down."""
        self.failure = exc
        print(
            f"repro.serve: {where} failed\n{''.join(traceback.format_exception(exc))}",
            file=sys.stderr,
            flush=True,
        )
        event = {
            "event": "error",
            "fatal": True,
            "message": f"internal error: {type(exc).__name__}: {exc}",
        }
        with suppress(Exception):
            if writer is None:
                await self._broadcast(event)
            else:
                await self._send(writer, event)
        self._schedule_stop()

    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> None:
        assert self._inbox is not None
        if request.get("op") == "submit":
            # Backpressure: a full inbox answers an explicit rejection
            # instead of queueing without bound.  The rejected task never
            # reaches the engine.
            try:
                self._inbox.put_nowait((request, time.perf_counter(), writer))
            except asyncio.QueueFull:
                self.metrics.rejected_overload += 1
                rejection: dict = {
                    "event": "accepted",
                    "accepted": False,
                    "reason": "overloaded",
                }
                task_payload = request.get("task")
                if isinstance(task_payload, Mapping) and "task_id" in task_payload:
                    rejection["task_id"] = task_payload["task_id"]
                await self._send(writer, rejection)
        else:
            # Control ops (flush/stats/close) are rare and must not be
            # dropped; let them wait for a slot, which simply stalls this
            # connection's reader.
            await self._inbox.put((request, time.perf_counter(), writer))

    async def _admission_loop(self) -> None:
        assert self._inbox is not None
        head = None
        while True:
            if head is None:
                head = await self._inbox.get()
            request, _, writer = head
            op = request.get("op")
            # Every item taken off the inbox is marked done once handled,
            # so a draining ``stop`` waits for exactly what was queued.
            taken: list = []
            try:
                if op == "submit":
                    head = await self._submit_run(head, taken)
                    closing = False
                else:
                    taken.append(head)
                    head = None
                    closing = await self._process(request, writer)
            except Exception as exc:
                # An unexpected failure must not kill the loop silently and
                # leave every client hanging.  Decisions the engine made
                # before it still go out first.  A run may span clients, so
                # its failure is reported to all of them.
                with suppress(Exception):
                    await self._broadcast_decisions(self.core.take_pending())
                await self._fail(
                    exc, f"admission loop on {op!r}", None if op == "submit" else writer
                )
                return
            finally:
                for _ in taken:
                    self._inbox.task_done()
            if closing:
                # The core is finalised; shut the whole service down.
                self._schedule_stop()
                return

    async def _submit_run(self, first: tuple, taken: list) -> tuple | None:
        """Admit ``first`` and the submissions queued behind it as one run.

        The run answers every member before any scheduling, with one write
        per client carrying its replies in request order; then it submits
        the admitted specs in order and broadcasts every decision they
        released at once.  Returns the queued item that ended the run — a
        control op, or a submission that heads the next run — or ``None``
        when the inbox ran dry.
        """
        assert self._inbox is not None
        self.metrics.runs += 1
        replies: dict[asyncio.StreamWriter, list[bytes]] = {}
        admitted: dict[int, tuple[TaskSpec, float]] = {}
        item: tuple | None = first
        while item is not None and item[0].get("op") == "submit":
            taken.append(item)
            reply = self._answer(item, admitted)
            if reply is None:
                taken.pop()
                break
            replies.setdefault(item[2], []).append(encode_line(reply))
            item = None if self._inbox.empty() else self._inbox.get_nowait()
        for writer, lines in replies.items():
            await self._write(writer, b"".join(lines))
        released: list[Decision] = []
        try:
            for spec, received in admitted.values():
                released += self.core.submit(spec, received=received)
        finally:
            # Decisions made before a failure still go out ahead of its report.
            await self._broadcast_decisions(released + self.core.take_pending())
        return item

    def _answer(
        self, item: tuple, admitted: dict[int, tuple[TaskSpec, float]]
    ) -> dict | None:
        """The reply to one submission of a run, or ``None`` if it ends the run.

        A malformed payload is answered in place.  Until the run admits a
        member, :meth:`SchedulerCore.admit` decides, as for a lone
        submission.  After that a submission joins only when ``admit`` is
        sure to pass it once the earlier members are scheduled: it is
        admissible now, its id is new to the run, and it arrives no earlier
        than the run's latest arrival — scheduling the run processes only
        events before that arrival, and ids only accumulate.  Any other
        submission heads the next run, where ``admit`` answers it exactly
        as it would have one at a time.
        """
        request, received, _ = item
        try:
            spec = spec_from_payload(request.get("task"))
        except ValueError as exc:
            self.metrics.rejected += 1
            return {"event": "error", "message": str(exc)}
        if admitted:
            last, _ = next(reversed(admitted.values()))
            if (
                spec.task_id in admitted
                or spec.arrival < last.arrival
                or not self.core.admissible(spec)
            ):
                return None
        else:
            try:
                self.core.admit(spec)
            except (ValueError, RuntimeError) as exc:
                return {"event": "error", "task_id": spec.task_id, "message": str(exc)}
        admitted[spec.task_id] = (spec, received)
        return {"event": "accepted", "accepted": True, "task_id": spec.task_id}

    async def _process(self, request: Mapping, writer: asyncio.StreamWriter) -> bool:
        op = request.get("op")
        if op == "flush":
            try:
                decisions = self.core.flush()
            except RuntimeError as exc:
                await self._broadcast_decisions(self.core.take_pending())
                await self._send(writer, {"event": "error", "message": str(exc)})
                return False
            await self._broadcast_decisions(decisions)
            await self._send(writer, {"event": "flushed"})
            return False
        if op == "stats":
            payload: dict = {"event": "stats", "metrics": self.core.metrics.snapshot()}
            obs = obs_active()
            if obs.enabled:
                # Over-the-wire enrichment: when the host process is tracing,
                # a stats request also carries the process-local telemetry
                # snapshot (counters/gauges/timings), so remote clients can
                # read engine/kernel internals without filesystem access.
                payload["obs"] = obs_snapshot(obs)
            await self._send(writer, payload)
            return False
        if op == "close":
            try:
                decisions = self.core.close()
            except RuntimeError as exc:
                await self._broadcast_decisions(self.core.take_pending())
                await self._send(writer, {"event": "error", "message": str(exc)})
                return False
            await self._broadcast_decisions(decisions)
            result = self.core.result
            await self._broadcast(
                {
                    "event": "closed",
                    "summary": result.summary(),
                    "status_counts": result.status_counts(),
                    "metrics": self.core.metrics.snapshot(),
                }
            )
            return True
        await self._send(writer, {"event": "error", "message": f"unknown op {op!r}"})
        return False

    # ------------------------------------------------------------------
    async def _broadcast_decisions(self, decisions: Sequence[Decision]) -> None:
        """One buffer per client: each payload encoded once, one write and drain."""
        if decisions:
            await self._broadcast_bytes(
                b"".join(encode_line(decision_to_payload(d)) for d in decisions)
            )

    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Start a connection's read loop as a task the service owns.

        A coroutine callback would leave the task to the stream protocol,
        whose done-callback (Python 3.11) logs an error for a cancelled one:
        ``asyncio.run`` cancelling a read loop stranded in ``wait_closed``
        after a KeyboardInterrupt did exactly that.  ``stop()`` cancels and
        awaits these tasks instead.
        """
        handler = asyncio.create_task(self._handle_client(reader, writer))
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Past the stream limit: answer, then hang up.
                    await self._send(writer, OVERLONG_LINE_ERROR)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_line(line)
                except ValueError as exc:
                    await self._send(writer, {"event": "error", "message": str(exc)})
                    continue
                try:
                    await self._dispatch(request, writer)
                except Exception as exc:
                    await self._fail(exc, f"dispatch of {request.get('op')!r}", writer)
                    return
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._discard_writer(writer)

    async def _broadcast(self, payload: Mapping) -> None:
        await self._broadcast_bytes(encode_line(payload))

    async def _broadcast_bytes(self, data: bytes) -> None:
        """Send encoded wire lines to every client: one write and drain each."""
        for writer in list(self._writers):
            await self._write(writer, data)

    async def _send(self, writer: asyncio.StreamWriter, payload: Mapping) -> None:
        await self._write(writer, encode_line(payload))

    async def _write(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        if writer not in self._writers:
            return
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            await self._discard_writer(writer)

    async def _discard_writer(self, writer: asyncio.StreamWriter) -> None:
        if writer in self._writers:
            self._writers.discard(writer)
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()
