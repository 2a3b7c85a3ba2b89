"""The scheduler service's asyncio server: one admission loop over a socket.

:class:`SchedulerService` hosts one :class:`~repro.serve.service.SchedulerCore`
behind a JSON-lines server (Unix socket or TCP, same wire protocol, see
:mod:`repro.serve.protocol`).  Its one admission loop serialises every
client's submissions into the core and streams the decision events back to
every connected client.  The inbox between the client handlers and the
admission loop is *bounded*: when it is full, further submissions are
answered with an explicit ``{"event": "accepted", "accepted": false}``
rejection instead of queueing without limit — overload degrades into a
measured rejection rate, not unbounded memory growth.  Graceful shutdown
drains in-flight submissions, closes the socket, and leaves no orphaned
tasks.

The core decides acceptance
(:meth:`~repro.serve.service.SchedulerCore.admit`); the server
answers ``accepted`` as soon as that passes, before the engine advances,
and only then runs the scheduling the arrival releases.  Submissions that
queued up meanwhile are admitted as one *run*: one reply write per client
before the run's scheduling, one decision broadcast after it (see
:meth:`SchedulerService._submit_run`).
"""

from __future__ import annotations

import asyncio
import sys
import time
import traceback
from contextlib import suppress
from pathlib import Path
from typing import Mapping, Sequence

from ..obs.export import snapshot as obs_snapshot
from ..obs.telemetry import active as obs_active
from ..workload.spec import TaskSpec
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
from .service import Decision, SchedulerCore

__all__ = ["SchedulerService"]


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
