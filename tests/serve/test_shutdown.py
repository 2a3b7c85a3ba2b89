"""Graceful-shutdown behaviour of the scheduler service.

Mirrors the executor's KeyboardInterrupt contract: stopping the service —
by API, by a client ``close``, or by an interrupt mid-bench — must drain
in-flight submissions (when asked), close and unlink the socket, and leave
no orphaned asyncio task behind.  The connection hub owns these steps for
both topologies, so the socket, idempotence and ``close`` contracts run on
each; a sharded service must also leave no worker process alive.
"""

from __future__ import annotations

import asyncio
from contextlib import suppress

import pytest

from repro.heuristics import make_heuristic
from repro.serve import (
    SchedulerCore,
    SchedulerService,
    build_service,
    decode_line,
    encode_line,
    spec_to_payload,
)
import repro.serve.loadgen as loadgen

#: Worker counts of the two topologies ``build_service`` builds.
TOPOLOGIES = {"single": 1, "sharded": 2}


def _core(pet, seed=5):
    return SchedulerCore(pet, make_heuristic("PAMF", num_task_types=pet.num_task_types), rng=seed)


def _service(pet, listen, topology):
    return build_service(pet, "PAMF", listen, workers=TOPOLOGIES[topology], seed=5)


def _workers_alive(service) -> list[bool]:
    """Liveness of a sharded service's worker processes (none for one core)."""
    return [
        shard.process.is_alive()
        for shard in getattr(service, "_shards", ())
        if shard.process is not None
    ]


async def _events_until_eof(reader: asyncio.StreamReader) -> list[dict]:
    events = []
    while line := await reader.readline():
        events.append(decode_line(line))
    return events


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
    def test_stop_drains_inflight_submissions(self, tmp_path, small_gamma_pet, small_trace):
        """Submissions already accepted into the inbox are processed before
        the admission loop is torn down."""

        async def drive():
            core = _core(small_gamma_pet)
            service = SchedulerService(core, tmp_path / "serve.sock")
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

    def test_stop_without_drain_discards_backlog(self, tmp_path, small_gamma_pet, small_trace):
        async def drive():
            core = _core(small_gamma_pet)
            service = SchedulerService(core, tmp_path / "serve.sock")
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

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_socket_closed_and_unlinked_after_stop(self, tmp_path, small_gamma_pet, topology):
        socket_path = tmp_path / "serve.sock"

        async def drive():
            service = _service(small_gamma_pet, socket_path, topology)
            await service.start()
            assert socket_path.exists()
            reader, writer = await asyncio.open_unix_connection(str(socket_path))
            # Round-trip once so the connection is fully established (not
            # merely sitting in the accept backlog) before tearing down.
            writer.write(encode_line({"op": "stats"}))
            await writer.drain()
            stats = decode_line(await reader.readline())
            assert stats["event"] == "stats"
            await service.stop(drain=True)
            assert not socket_path.exists()
            # The accepted connection was torn down by the service.
            assert await reader.read() == b""
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
            assert await _settled_tasks() == []
            return service

        service = asyncio.run(drive())
        assert not any(_workers_alive(service))
        with pytest.raises((ConnectionRefusedError, FileNotFoundError)):
            import socket as socket_module

            client = socket_module.socket(socket_module.AF_UNIX)
            try:
                client.connect(str(socket_path))
            finally:
                client.close()

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_failed_bind_leaves_nothing_running(self, small_gamma_pet, topology):
        """A start whose bind fails stops what the topology brought up."""

        async def drive():
            taken = await asyncio.start_server(lambda reader, writer: None, "127.0.0.1", 0)
            port = taken.sockets[0].getsockname()[1]
            service = _service(small_gamma_pet, f"tcp:127.0.0.1:{port}", topology)
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
        assert not any(_workers_alive(service))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_stop_is_idempotent(self, tmp_path, small_gamma_pet, topology):
        async def drive():
            service = _service(small_gamma_pet, tmp_path / "serve.sock", topology)
            await service.start()
            await service.stop(drain=True)
            await service.stop(drain=True)  # second stop returns immediately
            assert await _settled_tasks() == []
            return service

        service = asyncio.run(drive())
        assert not any(_workers_alive(service))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_client_close_op_stops_the_service(
        self, tmp_path, small_gamma_pet, light_trace, topology
    ):
        """A wire `close` finalises the run and shuts the whole service down."""

        async def drive():
            service = _service(small_gamma_pet, tmp_path / "serve.sock", topology)
            await service.start()
            reader, writer = await asyncio.open_unix_connection(str(service.socket_path))
            for spec in light_trace:
                writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
            writer.write(encode_line({"op": "close"}))
            await writer.drain()
            await asyncio.wait_for(service.wait_stopped(), timeout=10.0)
            events = await asyncio.wait_for(_events_until_eof(reader), timeout=10.0)
            writer.close()
            assert not service.socket_path.exists()
            assert await _settled_tasks() == []
            return service, events

        service, events = asyncio.run(drive())
        [closed] = [event for event in events if event["event"] == "closed"]
        assert closed["summary"]["tasks"] == len(light_trace)
        assert service.metrics.submitted == len(light_trace)
        assert not any(_workers_alive(service))


class TestInterruptMidBench:
    def test_keyboard_interrupt_leaves_no_orphans(
        self, monkeypatch, small_gamma_pet, light_trace
    ):
        """SIGINT mid-replay (KeyboardInterrupt in the loadgen client) still
        tears the per-rate service down: socket unlinked, loop drained."""
        created = []
        original_build = loadgen.build_service

        def spy_build(*args, **kwargs):
            created.append(original_build(*args, **kwargs))
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

        monkeypatch.setattr(loadgen, "build_service", spy_build)
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
