"""Multi-worker sharded admission: one front-end, N engine-worker processes.

The single-process :class:`~repro.serve.service.SchedulerService` serialises
every submission through one :class:`SchedulerCore`; past a few thousand
decisions per second the Python admission loop is the ceiling.  This module
scales the service *out*: a :class:`ShardedSchedulerService` front-end owns
the one client-facing socket (Unix or TCP; the connection handling is the
same :class:`~repro.serve.hub.ConnectionHub` the single service stands on)
and routes each submission — by a stable hash of its ``task_type`` — to one
of N **worker processes**, each hosting the single-process service over its
own :class:`SchedulerCore` behind a private Unix socket in a scratch
directory.  Decision events flow back through one relay per worker, which
re-sequences them into one globally-ordered stream (``seq``) while
preserving each worker's own order (``shard``/``shard_seq``).

Sharding by task type partitions the *workload*, not the machines: each
shard simulates the full machine set for its slice of task types, so a
shard's decision stream is bit-identical to an offline
:meth:`HCSimulator.run` of exactly that shard's tasks (seeded with
:func:`shard_seed`) — the per-shard replay-equivalence contract pinned in
``tests/serve/test_sharded.py``.  The merged stream is the union of the
per-shard streams; cross-shard interleaving is wall-clock order at the
front-end and deliberately *not* part of the contract.  Task ids stay unique
across shards, as in one core: the front-end remembers which shard holds
each id it forwarded and refuses another copy without forwarding it.

Backpressure is layered: the front-end caps in-flight submissions per shard
(``max_inflight``) — those forwarded that the worker has not yet validated,
since a worker answers ``accepted`` before the scheduling the arrival
releases — and answers ``{"event": "accepted", "accepted": false,
"reason": "overloaded"}`` beyond it, while each worker keeps its own
bounded inbox (sized above the front-end cap, so the front-end's limit is
the one that binds and rejection responses stay correlated).

:func:`build_service` is the one place either topology is built, from a PET,
a heuristic name and a worker count: one worker is the single-process
service over the core shard 0 would run.

Worker processes are spawned via :mod:`multiprocessing` (fork where
available, spawn otherwise — :class:`ShardSpec` is picklable either way)
and are daemons: an abandoned front-end cannot leak engine processes.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import shutil
import tempfile
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..pet.matrix import PETMatrix
from ..simulator.engine import SimulatorConfig
from ..workload.spec import TaskSpec
from .hub import ConnectionHub
from .metrics import ServiceMetrics, merge_snapshots
from .protocol import decode_line, encode_line, spec_from_payload, spec_to_payload
from .service import SchedulerCore, SchedulerService

__all__ = [
    "ShardSpec",
    "ShardedSchedulerService",
    "build_service",
    "build_shard_specs",
    "partition_trace",
    "shard_for",
    "shard_seed",
]

#: Seconds a spawned worker gets to start listening on its socket.
WORKER_START_TIMEOUT_S = 30.0


def shard_for(task_type: int, num_shards: int) -> int:
    """The shard a task type routes to — stable across processes and runs.

    Uses a keyed-nothing BLAKE2s digest rather than Python's ``hash`` (which
    is salted per process) so the front-end, every worker, and any offline
    replay agree on the partition.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    digest = hashlib.blake2s(str(int(task_type)).encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def shard_seed(seed: int, shard: int) -> int:
    """Per-shard engine seed: distinct streams, derivable offline."""
    return int(seed) + int(shard)


def partition_trace(
    specs: Iterable[TaskSpec], num_shards: int
) -> list[list[TaskSpec]]:
    """Split a task stream into per-shard subsequences (arrival order kept)."""
    shards: list[list[TaskSpec]] = [[] for _ in range(num_shards)]
    for spec in specs:
        shards[shard_for(spec.task_type, num_shards)].append(spec)
    return shards


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker process needs to build its admission core.

    Picklable by construction (the heuristic travels as its registry name)
    so workers can start under either the fork or the spawn method.
    """

    pet: PETMatrix
    #: Heuristic registry name (``repro.heuristics.make_heuristic``).
    heuristic: str
    seed: int
    sim_config: SimulatorConfig | None = None
    #: The worker's own bounded inbox; sized above the front-end's
    #: ``max_inflight`` so the front-end cap is the one that binds.
    inbox_limit: int = 1024

    def build_core(self) -> SchedulerCore:
        from ..heuristics import make_heuristic

        heuristic = make_heuristic(self.heuristic, num_task_types=self.pet.num_task_types)
        return SchedulerCore(self.pet, heuristic, config=self.sim_config, rng=self.seed)


def build_shard_specs(
    pet: PETMatrix,
    heuristic: str,
    *,
    workers: int,
    seed: int,
    sim_config: SimulatorConfig | None = None,
    inbox_limit: int = 1024,
) -> tuple[ShardSpec, ...]:
    """One :class:`ShardSpec` per worker, seeded with :func:`shard_seed`."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return tuple(
        ShardSpec(
            pet=pet,
            heuristic=heuristic,
            seed=shard_seed(seed, shard),
            sim_config=sim_config,
            inbox_limit=inbox_limit,
        )
        for shard in range(workers)
    )


def build_service(
    pet: PETMatrix,
    heuristic: str,
    listen: str | Path,
    *,
    workers: int = 1,
    seed: int,
    sim_config: SimulatorConfig | None = None,
    inbox_limit: int | None = None,
    drain_grace: float = 5.0,
) -> SchedulerService | ShardedSchedulerService:
    """Either serve topology, sized and seeded the same way for every caller.

    One worker is the single-process :class:`SchedulerService` over the core
    shard 0 would run (``shard_seed(seed, 0) == seed``), with ``inbox_limit``
    bounding its admission inbox.  More workers are a
    :class:`ShardedSchedulerService` whose front-end caps each shard at
    ``inbox_limit`` in-flight submissions (256 by default) and sizes every
    worker's own inbox above that cap, so the front-end's limit is the one
    that binds and rejections stay correlated with their submissions.
    """
    if workers == 1:
        core = ShardSpec(pet, heuristic, seed, sim_config).build_core()
        kwargs = {} if inbox_limit is None else {"inbox_limit": inbox_limit}
        return SchedulerService(core, listen, drain_grace=drain_grace, **kwargs)
    cap = 256 if inbox_limit is None else inbox_limit
    shard_specs = build_shard_specs(
        pet,
        heuristic,
        workers=workers,
        seed=seed,
        sim_config=sim_config,
        inbox_limit=max(4 * cap, 1024),
    )
    return ShardedSchedulerService(
        shard_specs, listen, max_inflight=cap, drain_grace=drain_grace
    )


# ----------------------------------------------------------------------
# Worker-process entry points (module level: picklable under spawn).
# ----------------------------------------------------------------------
def _shard_main(spec: ShardSpec, socket_path: str) -> None:
    """Child-process body: host one single-shard service until it stops."""
    # Under fork the child inherits the parent's "a loop is running" thread
    # state; clear it so asyncio.run can build a fresh loop.
    with suppress(AttributeError):
        asyncio.events._set_running_loop(None)
    try:
        asyncio.run(_host_shard(spec, socket_path))
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        pass


async def _host_shard(spec: ShardSpec, socket_path: str) -> None:
    service = SchedulerService(
        spec.build_core(), socket_path, inbox_limit=spec.inbox_limit
    )
    await service.start()
    await service.wait_stopped()


# ----------------------------------------------------------------------
# Front-end internals.
# ----------------------------------------------------------------------
@dataclass
class _FanIn:
    """One control request (flush/stats/close) awaiting every shard."""

    op: str
    writer: asyncio.StreamWriter | None
    remaining: int
    collected: list = field(default_factory=list)


class _Shard:
    """Front-end bookkeeping for one worker process."""

    def __init__(self, index: int, spec: ShardSpec, socket_path: Path) -> None:
        self.index = index
        self.spec = spec
        self.socket_path = socket_path
        self.process: multiprocessing.process.BaseProcess | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.relay: asyncio.Task | None = None
        self.send_lock = asyncio.Lock()
        #: task_id -> requesting client writer, for submits forwarded but
        #: not yet validated by the worker.
        self.submit_waiters: dict[int, asyncio.StreamWriter] = {}
        #: FIFO of control requests forwarded to this shard.
        self.control: deque[_FanIn] = deque()
        self.closed_payload: dict | None = None


def _mp_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class ShardedSchedulerService(ConnectionHub):
    """One client-facing socket fronting N sharded engine workers.

    Speaks the same JSON-lines wire protocol as the single-process
    :class:`~repro.serve.service.SchedulerService`; clients cannot tell the
    difference except for the extra ``shard``/``shard_seq`` fields on
    decision events and per-shard detail inside ``stats``/``closed``
    payloads.
    """

    def __init__(
        self,
        shard_specs: Sequence[ShardSpec],
        listen: str | Path,
        *,
        max_inflight: int = 256,
        drain_grace: float = 5.0,
    ) -> None:
        if not shard_specs:
            raise ValueError("at least one shard spec is required")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        super().__init__(listen, drain_grace=drain_grace)
        self._specs = tuple(shard_specs)
        self.max_inflight = int(max_inflight)
        #: Front-end routing counters (workers keep their own engine-side
        #: metrics; ``stats`` merges both views).
        self.metrics = ServiceMetrics()
        self._shards: list[_Shard] = []
        #: task_id -> the shard it was forwarded to, for every id no worker
        #: rejected: an id is injected at most once across all shards.
        self._holders: dict[int, _Shard] = {}
        self._scratch: Path | None = None
        self._seq = 0
        #: Serialises control fan-out so every shard sees control ops in
        #: the same order its FIFO recorded them (concurrent clients would
        #: otherwise interleave forwards and desynchronise the matching).
        self._control_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    async def _start_topology(self) -> None:
        # A failure anywhere below stops the service, whose teardown reaps
        # whatever had started.
        self._scratch = Path(tempfile.mkdtemp(prefix="repro-shards-"))
        ctx = _mp_context()
        self._shards = [
            _Shard(index, spec, self._scratch / f"shard-{index}.sock")
            for index, spec in enumerate(self._specs)
        ]
        for shard in self._shards:
            process = ctx.Process(
                target=_shard_main,
                args=(shard.spec, str(shard.socket_path)),
                name=f"repro-shard-{shard.index}",
                daemon=True,
            )
            process.start()
            shard.process = process
        for shard in self._shards:
            shard.reader, shard.writer = await self._connect_worker(shard)
        for shard in self._shards:
            shard.relay = asyncio.create_task(
                self._relay(shard), name=f"repro-shard-relay-{shard.index}"
            )

    async def _connect_worker(
        self, shard: _Shard
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Connect to the worker once it listens (or fail if the process died).

        The socket file appears at ``bind``, before the worker calls
        ``listen``: a connect in between is refused, so it is retried.
        """
        deadline = time.monotonic() + WORKER_START_TIMEOUT_S
        assert shard.process is not None
        while True:
            if shard.socket_path.exists():
                try:
                    return await asyncio.open_unix_connection(str(shard.socket_path))
                except ConnectionRefusedError:
                    pass
            if not shard.process.is_alive():
                raise RuntimeError(
                    f"shard worker {shard.index} exited with code "
                    f"{shard.process.exitcode} before listening on its socket"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"shard worker {shard.index} did not listen on {shard.socket_path} "
                    f"within {WORKER_START_TIMEOUT_S:.0f}s"
                )
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    async def _stop_topology(self, drain: bool) -> None:
        if drain:
            # Ask every still-open shard to finalise, bounded by the grace
            # period; workers exit on their own after answering `close`.
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._drain_shards(), self.drain_grace)
        await self._teardown_workers()

    async def _drain_shards(self) -> None:
        pending = [s for s in self._shards if s.closed_payload is None and s.writer]
        for shard in pending:
            fan_in = _FanIn(op="close", writer=None, remaining=1)
            shard.control.append(fan_in)
            with suppress(Exception):
                await self._forward(shard, {"op": "close"})
        for shard in pending:
            while shard.closed_payload is None and shard.relay is not None and not shard.relay.done():
                await asyncio.sleep(0.01)

    async def _teardown_workers(self) -> None:
        for shard in self._shards:
            if shard.relay is not None and not shard.relay.done():
                shard.relay.cancel()
                with suppress(asyncio.CancelledError):
                    await shard.relay
            if shard.writer is not None:
                with suppress(Exception):
                    shard.writer.close()
                    await shard.writer.wait_closed()
        # Workers that finalised (answered `close`) exit on their own; a
        # worker torn down mid-run is terminated outright.
        for shard in self._shards:
            process = shard.process
            if process is not None and shard.closed_payload is None and process.is_alive():
                process.terminate()
        deadline = time.monotonic() + 5.0
        for shard in self._shards:
            process = shard.process
            if process is None:
                continue
            while process.is_alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
            process.join(timeout=0.5)
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    # ------------------------------------------------------------------
    # Client side.
    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op == "submit":
            await self._route_submit(request, writer)
            return
        if op in ("flush", "stats", "close"):
            fan_in = _FanIn(op=op, writer=writer, remaining=len(self._shards))
            async with self._control_lock:
                for shard in self._shards:
                    shard.control.append(fan_in)
                for shard in self._shards:
                    await self._forward(shard, {"op": op})
            return
        await self._send(writer, {"event": "error", "message": f"unknown op {op!r}"})

    async def _route_submit(self, request: Mapping, writer: asyncio.StreamWriter) -> None:
        try:
            spec = spec_from_payload(request.get("task"))
        except ValueError as exc:
            self.metrics.rejected += 1
            await self._send(writer, {"event": "error", "message": str(exc)})
            return
        shard = self._shards[shard_for(spec.task_type, len(self._shards))]
        if len(shard.submit_waiters) >= self.max_inflight:
            # Per-shard backpressure: reject at the door, never forward.
            self.metrics.rejected_overload += 1
            await self._send(
                writer,
                {
                    "event": "accepted",
                    "accepted": False,
                    "task_id": spec.task_id,
                    "shard": shard.index,
                    "reason": "overloaded",
                },
            )
            return
        holder = self._holders.get(spec.task_id)
        if holder is not None:
            # Taken, whichever shard this copy's task type routes to.
            self.metrics.rejected += 1
            state = (
                "is already in flight"
                if spec.task_id in holder.submit_waiters
                else "was already injected"
            )
            await self._send(
                writer,
                {
                    "event": "error",
                    "task_id": spec.task_id,
                    "message": f"task {spec.task_id} {state}",
                },
            )
            return
        self._holders[spec.task_id] = shard
        shard.submit_waiters[spec.task_id] = writer
        self.metrics.submitted += 1
        await self._forward(shard, {"op": "submit", "task": spec_to_payload(spec)})

    async def _forward(self, shard: _Shard, payload: Mapping) -> None:
        assert shard.writer is not None
        async with shard.send_lock:
            shard.writer.write(encode_line(payload))
            await shard.writer.drain()

    # ------------------------------------------------------------------
    # Worker side: one relay task per shard.
    # ------------------------------------------------------------------
    async def _relay(self, shard: _Shard) -> None:
        assert shard.reader is not None
        where = f"shard worker {shard.index}"
        try:
            while True:
                line = await shard.reader.readline()
                if not line:
                    break
                event = decode_line(line)
                kind = event.get("event")
                if kind == "decision":
                    await self._relay_decision(shard, event)
                elif kind == "accepted" or (kind == "error" and "task_id" in event):
                    task_id = int(event["task_id"])
                    client = shard.submit_waiters.pop(task_id, None)
                    if kind == "accepted":
                        event.setdefault("accepted", True)
                    if not event.get("accepted"):
                        # The worker turned the task away, so it was never
                        # injected: the id is free again.
                        self._holders.pop(task_id, None)
                    event["shard"] = shard.index
                    if client is not None:
                        await self._send(client, event)
                elif kind in ("flushed", "stats", "closed"):
                    if kind == "closed":
                        shard.closed_payload = event
                    await self._resolve_control(shard, event)
                elif kind == "error":
                    # Uncorrelated error: a control response (head of the
                    # FIFO) or a fatal worker failure.
                    if shard.control:
                        await self._resolve_control(shard, event)
                    else:
                        await self._fail(RuntimeError(str(event.get("message"))), where)
                        return
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        # A worker EOFs its clients after answering `close`; that is a
        # normal exit, not a failure — only an EOF from a still-open shard
        # is a died-underneath-us event.
        if not self._stopping and shard.closed_payload is None:
            await self._fail(RuntimeError(f"{where} closed its connection"), where)

    async def _relay_decision(self, shard: _Shard, event: dict) -> None:
        payload = dict(event)
        payload["shard"] = shard.index
        payload["shard_seq"] = payload.get("seq")
        payload["seq"] = self._seq
        self._seq += 1
        self.metrics.decisions += 1
        await self._broadcast(payload)

    async def _resolve_control(self, shard: _Shard, event: dict) -> None:
        if not shard.control:  # pragma: no cover - defensive
            return
        fan_in = shard.control.popleft()
        fan_in.collected.append((shard.index, event))
        fan_in.remaining -= 1
        if fan_in.remaining > 0:
            return
        ordered = sorted(fan_in.collected)
        if fan_in.op == "close":
            if fan_in.writer is not None:
                await self._broadcast(self._merged_closed(ordered))
            self._schedule_stop()
            return
        if fan_in.writer is None:
            return
        errors = [e for _, e in fan_in.collected if e.get("event") == "error"]
        if errors:
            await self._send(fan_in.writer, errors[0])
            return
        if fan_in.op == "flush":
            await self._send(fan_in.writer, {"event": "flushed"})
        elif fan_in.op == "stats":
            await self._send(
                fan_in.writer,
                {
                    "event": "stats",
                    "metrics": self._merged_metrics(ordered),
                    "shards": [
                        {"shard": index, "metrics": event.get("metrics", {})}
                        for index, event in ordered
                    ],
                },
            )

    def _merged_metrics(self, ordered: list) -> dict:
        """The shards' metric snapshots merged, plus the front-end's rejections."""
        merged = merge_snapshots([event.get("metrics", {}) for _, event in ordered])
        front = self.metrics.snapshot()
        for key in ("rejected", "rejected_overload"):
            merged[key] = int(merged.get(key, 0)) + int(front[key])
        return merged

    def _merged_closed(self, ordered: list) -> dict:
        """Merge per-shard ``closed`` payloads into one service summary.

        Counters and costs sum exactly; robustness is the task-weighted
        mean of the shard robustness figures; ``end_time`` is the latest
        shard's.  The untouched per-shard payloads ride along under
        ``shards`` for anything that cannot be merged exactly.
        """
        status_counts: dict[str, int] = {}
        tasks = 0.0
        weighted_robustness = 0.0
        total_cost = 0.0
        end_time = 0.0
        for _, event in ordered:
            for key, value in event.get("status_counts", {}).items():
                status_counts[key] = status_counts.get(key, 0) + int(value)
            summary = event.get("summary", {})
            shard_tasks = float(summary.get("tasks", 0.0))
            tasks += shard_tasks
            weighted_robustness += shard_tasks * float(
                summary.get("robustness_percent", 0.0)
            )
            total_cost += float(summary.get("total_cost", 0.0))
            end_time = max(end_time, float(summary.get("end_time", 0.0)))
        return {
            "event": "closed",
            "summary": {
                "tasks": tasks,
                "robustness_percent": (
                    weighted_robustness / tasks if tasks else float("nan")
                ),
                "total_cost": total_cost,
                "end_time": end_time,
            },
            "status_counts": status_counts,
            "metrics": self._merged_metrics(ordered),
            "shards": [
                {"shard": index, **{k: v for k, v in event.items() if k != "event"}}
                for index, event in ordered
            ],
        }
