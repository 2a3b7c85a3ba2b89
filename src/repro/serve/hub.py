"""The JSON-lines connection hub both serve topologies stand on.

:class:`ConnectionHub` is everything a front-end does with its clients: the
endpoint bind (Unix socket or TCP), one read loop per connection, the client
set with send/broadcast/discard, the fatal-failure report and the shutdown
steps every topology shares.  A topology subclasses it and supplies the
three ``_*_topology``/``_dispatch`` hooks.
"""

from __future__ import annotations

import asyncio
import sys
import traceback
from contextlib import suppress
from pathlib import Path
from typing import Mapping

from .protocol import (
    MAX_LINE_BYTES,
    OVERLONG_LINE_ERROR,
    decode_line,
    encode_line,
    format_endpoint,
    parse_endpoint,
)

__all__ = ["ConnectionHub"]


class ConnectionHub:
    """A JSON-lines server over a Unix socket or TCP, topology left open.

    ``listen`` accepts a filesystem path / ``unix:PATH`` (Unix socket) or
    ``tcp:HOST:PORT`` (TCP; port ``0`` binds an ephemeral port, read the
    bound address back from :attr:`endpoint` after :meth:`start`).
    """

    def __init__(self, listen: str | Path, *, drain_grace: float) -> None:
        self._endpoint = parse_endpoint(listen)
        #: Socket path for Unix-socket services; ``None`` over TCP.
        self.socket_path = Path(self._endpoint[1]) if self._endpoint[0] == "unix" else None
        self.drain_grace = float(drain_grace)
        #: The exception that brought the service down, if any — a loud
        #: record of an ungraceful shutdown.
        self.failure: BaseException | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopped = asyncio.Event()
        self._stopping = False
        self._stopper: asyncio.Task | None = None

    @property
    def endpoint(self) -> str:
        """The client-facing endpoint string (actual bound port over TCP)."""
        return format_endpoint(self._endpoint)

    async def _start_topology(self) -> None:
        """Bring up what answers requests; runs before the endpoint is bound."""
        raise NotImplementedError

    async def _stop_topology(self, drain: bool) -> None:
        """Drain (if asked) and tear down, between closing the endpoint and EOF."""
        raise NotImplementedError

    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> None:
        """Handle one decoded request from ``writer``'s connection."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("the service is already started")
        try:
            await self._start_topology()
            if self._endpoint[0] == "unix":
                assert self.socket_path is not None
                self.socket_path.parent.mkdir(parents=True, exist_ok=True)
                if self.socket_path.exists():
                    self.socket_path.unlink()
                self._server = await asyncio.start_unix_server(
                    self._handle_client, path=str(self.socket_path), limit=MAX_LINE_BYTES
                )
            else:
                self._server = await asyncio.start_server(
                    self._handle_client,
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
        await self._stop_topology(drain)
        for writer in list(self._writers):
            await self._discard_writer(writer)
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
