"""Graceful-shutdown behaviour of the scheduler service.

Mirrors the executor's KeyboardInterrupt contract: stopping the service —
by API, by a client ``close``, or by an interrupt mid-bench — must drain
in-flight submissions (when asked), close and unlink the socket, and leave
no orphaned asyncio task behind.
"""

from __future__ import annotations

import asyncio
import logging
from contextlib import suppress

import pytest

from repro.heuristics import make_heuristic
import repro.serve.loadgen as loadgen
import repro.serve.server as server
from repro.serve.protocol import decode_line, encode_line, open_endpoint, spec_to_payload
from repro.serve.server import SchedulerService
from repro.serve.service import SchedulerCore


def _core(pet, seed=5):
    return SchedulerCore(pet, make_heuristic("PAMF", num_task_types=pet.num_task_types), rng=seed)


def _service(pet, listen):
    return SchedulerService(_core(pet), listen)


async def _events_until_eof(reader: asyncio.StreamReader) -> list[dict]:
    events = []
    while line := await reader.readline():
        events.append(decode_line(line))
    return events


async def _refuses_connections(endpoint: str) -> bool:
    """Whether nothing listens at ``endpoint`` any more."""
    try:
        _, writer = await open_endpoint(endpoint)
    except (ConnectionRefusedError, FileNotFoundError):
        return True
    writer.close()
    await writer.wait_closed()
    return False


async def _settled_tasks(deadline: float = 2.0) -> list[asyncio.Task]:
    """Every task other than the caller that refuses to finish promptly."""
    current = asyncio.current_task()
    for _ in range(int(deadline / 0.01)):
        leftover = [t for t in asyncio.all_tasks() if t is not current and not t.done()]
        if not leftover:
            return []
        await asyncio.sleep(0.01)
    return [t for t in asyncio.all_tasks() if t is not current and not t.done()]


class TestGracefulStop:
    def test_stop_drains_inflight_submissions(self, listen, small_gamma_pet, small_trace):
        """Submissions already accepted into the inbox are processed before
        the admission loop is torn down."""

        async def drive():
            core = _core(small_gamma_pet)
            service = SchedulerService(core, listen)
            await service.start()
            for spec in small_trace:
                service._inbox.put_nowait(
                    ({"op": "submit", "task": spec_to_payload(spec)}, 0.0, object())
                )
            await service.stop(drain=True)
            assert await _settled_tasks() == []
            return core

        core = asyncio.run(drive())
        assert core.metrics.submitted == len(small_trace)

    def test_stop_without_drain_discards_backlog(self, listen, small_gamma_pet, small_trace):
        async def drive():
            core = _core(small_gamma_pet)
            service = SchedulerService(core, listen)
            await service.start()
            for spec in small_trace:
                service._inbox.put_nowait(
                    ({"op": "submit", "task": spec_to_payload(spec)}, 0.0, object())
                )
            await service.stop(drain=False)
            assert await _settled_tasks() == []
            return core

        core = asyncio.run(drive())
        # The admission loop may have started on the backlog, but a no-drain
        # stop must not wait for all of it.
        assert core.metrics.submitted <= len(small_trace)

    def test_socket_closed_and_unlinked_after_stop(self, listen, small_gamma_pet):
        """The listener closes (a Unix socket file is unlinked too) and the
        accepted connection gets EOF."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            socket_path = service.socket_path
            assert socket_path is None or socket_path.exists()
            reader, writer = await open_endpoint(service.endpoint)
            # Round-trip once so the connection is fully established (not
            # merely sitting in the accept backlog) before tearing down.
            writer.write(encode_line({"op": "stats"}))
            await writer.drain()
            stats = decode_line(await reader.readline())
            assert stats["event"] == "stats"
            await service.stop(drain=True)
            assert socket_path is None or not socket_path.exists()
            # The accepted connection was torn down by the service.
            assert await reader.read() == b""
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            assert await _settled_tasks() == []
            assert await _refuses_connections(service.endpoint)

        asyncio.run(drive())

    def test_failed_bind_leaves_nothing_running(self, small_gamma_pet):
        """A start whose bind fails stops the admission loop it started."""

        async def drive():
            taken = await asyncio.start_server(lambda reader, writer: None, "127.0.0.1", 0)
            port = taken.sockets[0].getsockname()[1]
            service = _service(small_gamma_pet, f"tcp:127.0.0.1:{port}")
            try:
                with pytest.raises(OSError):
                    await service.start()
            finally:
                taken.close()
                await taken.wait_closed()
            assert await _settled_tasks() == []
            return service

        service = asyncio.run(drive())
        assert service.failure is None

    def test_failed_unix_bind_leaves_nothing_running(self, tmp_path, small_gamma_pet):
        """A socket path longer than ``sun_path`` holds fails the bind
        itself; the start stops its admission loop and leaves no file."""
        socket_path = tmp_path / ("s" * 120 + ".sock")

        async def drive():
            service = _service(small_gamma_pet, socket_path)
            with pytest.raises(OSError):
                await service.start()
            assert await _settled_tasks() == []
            return service

        service = asyncio.run(drive())
        assert service.failure is None
        assert not socket_path.exists()

    def test_stop_is_idempotent(self, listen, small_gamma_pet):
        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            await service.stop(drain=True)
            await service.stop(drain=True)  # second stop returns immediately
            assert await _settled_tasks() == []

        asyncio.run(drive())

    def test_client_close_op_stops_the_service(
        self, listen, small_gamma_pet, light_trace
    ):
        """A wire `close` finalises the run and shuts the whole service down."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            reader, writer = await open_endpoint(service.endpoint)
            for spec in light_trace:
                writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
            writer.write(encode_line({"op": "close"}))
            await writer.drain()
            await asyncio.wait_for(service.wait_stopped(), timeout=10.0)
            events = await asyncio.wait_for(_events_until_eof(reader), timeout=10.0)
            writer.close()
            assert service.socket_path is None or not service.socket_path.exists()
            assert await _refuses_connections(service.endpoint)
            assert await _settled_tasks() == []
            return service, events

        service, events = asyncio.run(drive())
        [closed] = [event for event in events if event["event"] == "closed"]
        assert closed["summary"]["tasks"] == len(light_trace)
        assert service.metrics.submitted == len(light_trace)


class TestInterruptMidBench:
    def test_keyboard_interrupt_leaves_no_orphans(
        self, monkeypatch, caplog, small_gamma_pet, light_trace
    ):
        """SIGINT mid-replay (KeyboardInterrupt in the loadgen client) still
        tears the per-rate service down: socket unlinked, loop drained, and
        no read loop left for ``asyncio.run`` to cancel (which asyncio logs
        as an error)."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        created = []
        original_service = server.SchedulerService

        def spy_service(*args, **kwargs):
            created.append(original_service(*args, **kwargs))
            return created[-1]

        async def interrupting_replay(socket_path, trace, **kwargs):
            reader, writer = await asyncio.open_unix_connection(str(socket_path))
            try:
                writer.write(
                    encode_line({"op": "submit", "task": spec_to_payload(trace[0])})
                )
                await writer.drain()
                raise KeyboardInterrupt
            finally:
                # An interrupted client still closes its connection: nothing
                # it opened may outlive the loop.
                writer.close()
                with suppress(ConnectionError):
                    await writer.wait_closed()

        # ``_bench_one_rate`` imports the server when it runs, so the spy
        # goes where that import resolves the name.
        monkeypatch.setattr(server, "SchedulerService", spy_service)
        monkeypatch.setattr(loadgen, "replay_trace", interrupting_replay)

        with pytest.raises(KeyboardInterrupt):
            loadgen.run_bench(
                small_gamma_pet,
                light_trace,
                heuristic_name="PAMF",
                pet_kind="small",
                seed=5,
                rates=(100.0,),
                check_offline=False,
            )
        assert len(created) == 1
        [service] = created
        assert not service.socket_path.exists()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
