"""Replay equivalence and admission semantics of the scheduler service.

The load-bearing property: a trace streamed through :class:`SchedulerCore`
(or over the socket) in arrival order produces decisions *bit-identical* to
an offline batch :meth:`HCSimulator.run` of the same trace — mapping,
drop set, drop reasons, and on-time flags all equal with atol=0.  The full
reference trace (``examples/transcoding_660.trace.json``, PAMF) is pinned
here, per the acceptance criteria.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import pytest

from repro.heuristics import make_heuristic
from repro.pet.builders import build_transcoding_pet
from repro.serve.loadgen import replay_trace
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    open_endpoint,
    parse_endpoint,
    spec_from_payload,
    spec_to_payload,
)
from repro.serve.server import SchedulerService
from repro.serve.service import SchedulerCore, decision_map, offline_decision_map
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.spec import TaskSpec
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent / "examples" / "transcoding_660.trace.json"
)


def _heuristic(pet, name="PAMF"):
    return make_heuristic(name, num_task_types=pet.num_task_types)


def _offline(pet, trace, *, name="PAMF", seed=5):
    return HCSimulator(pet, _heuristic(pet, name), rng=seed).run(trace)


def _service(pet, listen, **kwargs) -> SchedulerService:
    """The service over a fresh PAMF core, seeded 5."""
    return SchedulerService(SchedulerCore(pet, _heuristic(pet), rng=5), listen, **kwargs)


class TestReplayEquivalence:
    @pytest.mark.parametrize("name", ["MM", "PAM", "PAMF"])
    def test_streamed_matches_offline(self, small_gamma_pet, small_trace, name):
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet, name), rng=5)
        decisions = []
        for spec in small_trace:
            decisions.extend(core.submit(spec))
        decisions.extend(core.close())
        offline = _offline(small_gamma_pet, small_trace, name=name)
        assert decision_map(decisions) == offline_decision_map(offline)
        assert core.result.summary() == offline.summary()

    def test_full_reference_trace_pinned(self):
        """The acceptance gate: transcoding_660 + PAMF, streamed vs batch."""
        trace = load_trace(REFERENCE_TRACE)
        pet = build_transcoding_pet(rng=2019)
        core = SchedulerCore(pet, _heuristic(pet), rng=2021)
        decisions = []
        for spec in trace:
            decisions.extend(core.submit(spec))
        decisions.extend(core.close())
        offline = HCSimulator(pet, _heuristic(pet), rng=2021).run(trace)
        streamed_map = decision_map(decisions)
        assert len(streamed_map) == len(trace) == 660
        assert streamed_map == offline_decision_map(offline)
        assert core.result.summary() == offline.summary()

    @pytest.mark.parametrize("window", [6, 20])
    def test_batched_rounds_streamed_matches_offline(
        self, small_gamma_pet, small_trace, window
    ):
        """Streaming equals batch replay in batched-rounds mode too."""
        config = SimulatorConfig(batch_window=window)
        core = SchedulerCore(
            small_gamma_pet, _heuristic(small_gamma_pet), config=config, rng=5
        )
        decisions = []
        for spec in small_trace:
            decisions.extend(core.submit(spec))
        decisions.extend(core.close())
        offline = HCSimulator(
            small_gamma_pet, _heuristic(small_gamma_pet), config=config, rng=5
        ).run(small_trace)
        assert decision_map(decisions) == offline_decision_map(offline)
        assert core.result.summary() == offline.summary()

    def test_reference_trace_batched_rounds_pinned(self):
        """transcoding_660 + PAMF under batched rounds: served vs offline."""
        trace = load_trace(REFERENCE_TRACE)
        pet = build_transcoding_pet(rng=2019)
        config = SimulatorConfig(batch_window=60)
        core = SchedulerCore(pet, _heuristic(pet), config=config, rng=2021)
        decisions = []
        for spec in trace:
            decisions.extend(core.submit(spec))
        decisions.extend(core.close())
        offline = HCSimulator(pet, _heuristic(pet), config=config, rng=2021).run(trace)
        streamed_map = decision_map(decisions)
        assert len(streamed_map) == len(trace) == 660
        assert streamed_map == offline_decision_map(offline)
        assert core.result.summary() == offline.summary()
        # Batching must actually have batched: far fewer rounds than events.
        assert core.result.counters.mapping_events < len(trace)

    def test_simultaneous_arrivals_share_a_mapping_event(self, small_gamma_pet, small_trace):
        """Tasks submitted one by one with equal arrivals still batch."""
        burst = [spec for spec in small_trace if spec.arrival == small_trace[0].arrival]
        assert burst, "trace should start with at least one task"
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        for spec in small_trace:
            core.submit(spec)
        core.close()
        offline = _offline(small_gamma_pet, small_trace)
        assert core.result.counters.mapping_events == offline.counters.mapping_events

    def test_socket_stream_matches_offline(self, tmp_path, small_gamma_pet, small_trace):
        """Socket-served decisions equal the offline map, end to end."""

        async def drive():
            core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
            service = SchedulerService(core, tmp_path / "serve.sock")
            await service.start()
            try:
                return await replay_trace(
                    service.socket_path, small_trace, rate=10_000.0, close=True
                )
            finally:
                await service.stop(drain=False)

        outcome = asyncio.run(drive())
        offline = _offline(small_gamma_pet, small_trace)
        assert decision_map(outcome.decisions) == offline_decision_map(offline)
        assert outcome.closed is not None
        assert outcome.closed["summary"] == offline.summary()
        assert outcome.closed["metrics"]["submitted"] == len(small_trace)

    def test_decision_latency_uses_injected_clock(self, small_gamma_pet, small_trace):
        ticks = itertools.count()
        core = SchedulerCore(
            small_gamma_pet,
            _heuristic(small_gamma_pet),
            rng=5,
            clock=lambda: float(next(ticks)),
        )
        for spec in small_trace:
            core.submit(spec)
        core.close()
        summary = core.metrics.admission.summary()
        assert summary["count"] == len(small_trace)
        assert summary["max_s"] >= 0.0


class TestAdmissionGuards:
    def test_late_arrival_rejected_and_counted(self, small_gamma_pet):
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        core.submit(TaskSpec(arrival=100, task_id=0, task_type=0, deadline=400))
        # A later instant moves the processed frontier past time 100...
        core.submit(TaskSpec(arrival=150, task_id=1, task_type=0, deadline=500))
        # ...so an arrival behind the frontier is late and must be rejected.
        with pytest.raises(ValueError, match="already processed"):
            core.submit(TaskSpec(arrival=40, task_id=2, task_type=0, deadline=300))
        assert core.metrics.rejected == 1
        assert core.metrics.submitted == 2

    def test_duplicate_task_id_rejected(self, small_gamma_pet):
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        core.submit(TaskSpec(arrival=10, task_id=7, task_type=0, deadline=200))
        with pytest.raises(ValueError, match="already injected"):
            core.submit(TaskSpec(arrival=10, task_id=7, task_type=1, deadline=250))
        assert core.metrics.rejected == 1

    def test_task_type_outside_the_pet_rejected(self, small_gamma_pet, small_trace):
        """A type the PET has no row for is refused and counted before the
        clock moves: the valid tasks around it stream exactly as without it."""
        alone = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        expected = [d for spec in small_trace for d in alone.submit(spec)] + alone.close()
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        decisions = []
        mid = len(small_trace) // 2
        for index, spec in enumerate(small_trace):
            if index == mid:
                bad = TaskSpec(arrival=spec.arrival + 1, task_id=10_000, task_type=4, deadline=9_999)
                with pytest.raises(ValueError, match="type 4, but the PET has 4 task types"):
                    core.submit(bad)
            decisions += core.submit(spec)
        decisions += core.close()
        assert core.metrics.rejected == 1
        assert core.metrics.submitted == len(small_trace)
        assert [(d.seq, d.task_id, d.action, d.time, d.machine) for d in decisions] == [
            (d.seq, d.task_id, d.action, d.time, d.machine) for d in expected
        ]

    def test_same_instant_resubmission_allowed(self, small_gamma_pet):
        """Equal-arrival submissions are not 'late' — the batch is open."""
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        core.submit(TaskSpec(arrival=50, task_id=0, task_type=0, deadline=300))
        core.submit(TaskSpec(arrival=50, task_id=1, task_type=1, deadline=300))
        assert core.metrics.submitted == 2

    def test_submit_after_close_raises(self, small_gamma_pet):
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        core.submit(TaskSpec(arrival=10, task_id=0, task_type=0, deadline=100))
        core.close()
        with pytest.raises(RuntimeError, match="closed"):
            core.submit(TaskSpec(arrival=20, task_id=1, task_type=0, deadline=120))
        with pytest.raises(RuntimeError, match="closed"):
            core.flush()
        with pytest.raises(RuntimeError, match="closed"):
            core.close()

    def test_result_unavailable_before_close(self, small_gamma_pet):
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        with pytest.raises(RuntimeError, match="close"):
            core.result

    def test_flush_forces_held_instant(self, small_gamma_pet):
        """Without flush the watermark batch is held open; flush maps it."""
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        held = core.submit(TaskSpec(arrival=10, task_id=0, task_type=0, deadline=500))
        assert held == []  # the time-10 batch is still open
        flushed = core.flush()
        assert any(d.action == "assigned" and d.task_id == 0 for d in flushed)


class TestDuplicateTaskId:
    def test_second_copy_is_refused(self, listen, small_gamma_pet):
        """Task 7 twice, with different types: the second copy gets a
        non-fatal error and the run counts one task."""

        def submit(task_type):
            task = {"task_id": 7, "task_type": task_type, "arrival": 1, "deadline": 100}
            return encode_line({"op": "submit", "task": task})

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(submit(0))
                await writer.drain()
                while (event := decode_line(await reader.readline()))["event"] != "accepted":
                    pass
                writer.write(submit(2))
                writer.write(encode_line({"op": "close"}))
                await writer.drain()
                events = [event]
                while line := await reader.readline():
                    events.append(decode_line(line))
                writer.close()
            finally:
                await service.stop(drain=False)
            return service, events

        service, events = asyncio.run(drive())
        assert [e for e in events if e["event"] == "error"] == [
            {"event": "error", "task_id": 7, "message": "task 7 was already injected"}
        ]
        [closed] = [e for e in events if e["event"] == "closed"]
        assert closed["summary"]["tasks"] == 1
        assert service.failure is None


class TestRejectionStateIsolation:
    def test_rejected_submissions_leave_stream_identical(
        self, small_gamma_pet, small_trace
    ):
        """A rejected submit (duplicate id, late arrival) must not move the
        engine frontier, fire mapping events, or perturb any later decision
        — the probed core's stream stays bit-identical to a control core
        that never saw the rejects."""
        control = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        probed = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        control_decisions: list = []
        probed_decisions: list = []
        mid = len(small_trace) // 2
        for index, spec in enumerate(small_trace):
            control_decisions.extend(control.submit(spec))
            probed_decisions.extend(probed.submit(spec))
            if index == mid:
                frontier = probed._sim._processed_through
                mapping_events = probed.metrics.mapping_events
                with pytest.raises(ValueError, match="already processed"):
                    probed.submit(
                        TaskSpec(arrival=0, task_id=999_001, task_type=0, deadline=10**6)
                    )
                with pytest.raises(ValueError, match="already injected"):
                    probed.submit(spec)
                assert probed._sim._processed_through == frontier
                assert probed.metrics.mapping_events == mapping_events
                assert probed.take_pending() == []
        control_decisions.extend(control.close())
        probed_decisions.extend(probed.close())
        assert probed.metrics.rejected == 2
        assert decision_map(probed_decisions) == decision_map(control_decisions)
        assert probed.result.summary() == control.result.summary()


class TestBookkeepingBounds:
    def test_per_task_state_pruned_at_terminal(self, small_gamma_pet, small_trace):
        """Submission bookkeeping is O(in-flight tasks), not O(all tasks
        ever submitted), and empty once the run closes."""
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        for spec in small_trace:
            core.submit(spec)
            in_flight = (
                core.metrics.submitted - core.metrics.completed - core.metrics.dropped
            )
            assert len(core._submit_wall) <= in_flight
            assert len(core._first_decided) <= in_flight
        core.close()
        assert core._submit_wall == {}
        assert core._first_decided == set()

    def test_engine_keeps_only_in_flight_tasks(self, small_gamma_pet):
        """After 4,000 submissions the engine holds a Task for each task
        still in flight and nothing for a finished one, whose id stays
        taken."""
        trace = generate_workload(
            WorkloadConfig(num_tasks=4000, time_span=20_000, beta=1.5), small_gamma_pet, rng=11
        )
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        finished: set[int] = set()
        for spec in trace:
            finished.update(
                d.task_id for d in core.submit(spec) if d.action in ("completed", "dropped")
            )
        in_flight = core.metrics.submitted - core.metrics.completed - core.metrics.dropped
        assert core.metrics.submitted == 4000
        assert len(core._sim.tasks) == in_flight < 100
        assert set(core._sim.tasks).isdisjoint(finished)
        reused = min(finished)
        last = trace[len(trace) - 1]
        with pytest.raises(ValueError, match=f"task {reused} was already injected"):
            core.submit(TaskSpec(last.arrival, reused, 0, last.arrival + 100))
        assert core.metrics.rejected == 1
        core.close()
        assert core._sim.tasks == {}
        assert core.result.num_tasks == 4000


class TestAdmissionLoopResilience:
    def test_unexpected_failure_is_loud_and_fatal(self, listen, small_gamma_pet):
        """A poisoned request must not kill the admission loop silently:
        the client gets a fatal error event, the failure is recorded, and
        the service shuts down instead of stalling every client forever."""

        async def drive():
            core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)

            def poisoned(spec, *, received=None):
                raise TypeError("poisoned request")

            core.submit = poisoned
            service = SchedulerService(core, listen)
            await service.start()
            reader, writer = await open_endpoint(service.endpoint)
            spec = TaskSpec(arrival=1, task_id=0, task_type=0, deadline=100)
            writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
            await writer.drain()
            events = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                events.append(decode_line(line))
            await service.wait_stopped()
            writer.close()
            return service, events

        service, events = asyncio.run(drive())
        errors = [e for e in events if e.get("event") == "error"]
        assert errors and errors[0]["fatal"] is True
        assert "TypeError" in errors[0]["message"]
        assert isinstance(service.failure, TypeError)

    def test_error_path_still_broadcasts_pending_decisions(
        self, listen, small_gamma_pet
    ):
        """A failure inside ``submit`` comes after admission, so it is fatal:
        the client sees ``accepted``, then the decision the engine made
        before failing — never stranded in the core's pending buffer — then
        the fatal error, then EOF."""

        async def drive():
            core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)

            def failing(spec, *, received=None):
                core._emit(spec.task_id, "assigned", time=0, machine=0)
                raise RuntimeError("engine fell over mid-submit")

            core.submit = failing
            service = SchedulerService(core, listen)
            await service.start()
            reader, writer = await open_endpoint(service.endpoint)
            spec = TaskSpec(arrival=1, task_id=0, task_type=0, deadline=100)
            writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
            await writer.drain()
            events = []
            while line := await asyncio.wait_for(reader.readline(), timeout=10.0):
                events.append(decode_line(line))
            await asyncio.wait_for(service.wait_stopped(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
            return service, events

        service, events = asyncio.run(drive())
        accepted, decision, error = events
        assert accepted == {"event": "accepted", "accepted": True, "task_id": 0}
        assert decision["event"] == "decision" and decision["task_id"] == 0
        assert error["event"] == "error" and error["fatal"] is True
        assert "task_id" not in error
        assert "fell over" in error["message"]
        assert isinstance(service.failure, RuntimeError)


class _GatedHeuristic:
    """A heuristic whose every mapping event first waits for ``gate``."""

    def __init__(self, inner, gate: threading.Event) -> None:
        self._inner = inner
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def map_tasks(self, context):
        self._gate.wait(timeout=GATE_TIMEOUT_S)
        return self._inner.map_tasks(context)


#: How long the client waits for an ack before calling the service stuck.
ACK_TIMEOUT_S = 5.0
#: Upper bound on a gated mapping event, so a stuck service still ends.
GATE_TIMEOUT_S = 30.0


@contextmanager
def _hosted_in_thread(core: SchedulerCore, socket_path: Path, gate: threading.Event):
    """A :class:`SchedulerService` on its own loop thread, stopped on exit.

    Yields the service and its loop.  ``core``'s heuristic may block that
    loop on ``gate`` while the test thread reads the socket; exiting opens
    the gate first, so a failed test still ends.  The host runs until the
    service stops itself (a client's ``close``) or exit asks it to stop;
    exit never waits on a future, because a loop already shutting down
    drops whatever is scheduled onto it.
    """
    hosted: dict = {}
    started = threading.Event()

    async def host():
        service = SchedulerService(core, socket_path)
        await service.start()
        stop_requested = asyncio.Event()
        hosted.update(service=service, loop=asyncio.get_running_loop(), stop=stop_requested)
        started.set()
        waiters = {
            asyncio.ensure_future(service.wait_stopped()),
            asyncio.ensure_future(stop_requested.wait()),
        }
        await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        for waiter in waiters:
            waiter.cancel()
        await service.stop(drain=False)

    thread = threading.Thread(target=asyncio.run, args=(host(),), daemon=True)
    thread.start()
    assert started.wait(timeout=10.0)
    try:
        yield hosted["service"], hosted["loop"]
    finally:
        gate.set()
        with suppress(RuntimeError):  # the loop has closed: the host is done
            hosted["loop"].call_soon_threadsafe(hosted["stop"].set)
        thread.join(timeout=GATE_TIMEOUT_S)
        assert not thread.is_alive()


async def _next_event(reader) -> dict:
    return decode_line(await asyncio.wait_for(reader.readline(), timeout=30.0))


def _read_until_eof(reader) -> list[dict]:
    return [decode_line(line) for line in iter(reader.readline, b"")]


class TestAckBeforeScheduling:
    def test_accepted_does_not_wait_for_the_mapping_event_it_releases(
        self, tmp_path, small_gamma_pet
    ):
        """Task 1 arrives after task 0, so its submission runs the mapping
        event of task 0's instant.  That mapping event blocks until the
        client has read task 1's ``accepted``: an ack that waited for the
        scheduling would never come (the read times out instead)."""
        gate = threading.Event()
        core = SchedulerCore(
            small_gamma_pet, _GatedHeuristic(_heuristic(small_gamma_pet), gate), rng=5
        )
        tasks = [
            TaskSpec(arrival=1, task_id=0, task_type=0, deadline=100),
            TaskSpec(arrival=5, task_id=1, task_type=1, deadline=100),
        ]
        events = []
        with (
            _hosted_in_thread(core, tmp_path / "serve.sock", gate) as (service, _),
            socket.socket(socket.AF_UNIX) as client,
            client.makefile("rb") as reader,
        ):
            client.settimeout(ACK_TIMEOUT_S)
            client.connect(str(service.socket_path))
            for spec in tasks:
                client.sendall(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
            while not events or events[-1] != {
                "event": "accepted",
                "accepted": True,
                "task_id": 1,
            }:
                events.append(decode_line(reader.readline()))
            gate.set()
            client.sendall(encode_line({"op": "close"}))
            events += _read_until_eof(reader)
        assert service.failure is None
        kinds = [(e["event"], e.get("task_id")) for e in events]
        assert kinds[:2] == [("accepted", 0), ("accepted", 1)]
        [closed] = [e for e in events if e["event"] == "closed"]
        assert closed["summary"]["tasks"] == 2
        assert {e["task_id"] for e in events if e["event"] == "decision"} == {0, 1}


class TestRuns:
    def test_queued_burst_is_acked_before_its_first_mapping_event(
        self, tmp_path, small_gamma_pet
    ):
        """Five submissions sit in the inbox before the admission loop takes
        the first.  Task 1's arrival runs the mapping event of task 0's
        instant, which blocks until the client has read *all five*
        ``accepted``: they are one run, answered in one write before its
        scheduling.  Admitted one at a time, the acks of tasks 2..4 would
        wait behind that mapping event and the read would time out."""
        gate = threading.Event()
        core = SchedulerCore(
            small_gamma_pet, _GatedHeuristic(_heuristic(small_gamma_pet), gate), rng=5
        )
        tasks = [
            TaskSpec(arrival=1 + 4 * i, task_id=i, task_type=i % 4, deadline=400)
            for i in range(5)
        ]
        events = []
        with (
            _hosted_in_thread(core, tmp_path / "serve.sock", gate) as (service, loop),
            socket.socket(socket.AF_UNIX) as client,
            client.makefile("rb") as reader,
        ):
            client.settimeout(ACK_TIMEOUT_S)
            client.connect(str(service.socket_path))
            deadline = time.monotonic() + ACK_TIMEOUT_S
            while not service._writers and time.monotonic() < deadline:
                time.sleep(0.01)
            [writer] = service._writers

            def enqueue():
                # One loop callback: the admission loop wakes only after all
                # five are queued, however the socket would have split them.
                for spec in tasks:
                    request = {"op": "submit", "task": spec_to_payload(spec)}
                    service._inbox.put_nowait((request, time.perf_counter(), writer))

            loop.call_soon_threadsafe(enqueue)
            while len(events) < len(tasks):
                events.append(decode_line(reader.readline()))
            gate.set()
            client.sendall(encode_line({"op": "close"}))
            events += _read_until_eof(reader)
        assert service.failure is None
        # The five acks come first, so each precedes its task's decisions.
        assert events[: len(tasks)] == [
            {"event": "accepted", "accepted": True, "task_id": spec.task_id}
            for spec in tasks
        ]
        decided = [e["task_id"] for e in events if e["event"] == "decision"]
        assert set(decided) == {spec.task_id for spec in tasks}
        [closed] = [e for e in events if e["event"] == "closed"]
        assert closed["summary"]["tasks"] == len(tasks)
        assert closed["metrics"]["runs"] == 1

    def test_window_one_client_gets_a_run_per_submission(
        self, listen, small_gamma_pet, small_trace
    ):
        """A client that sends its next submission only after the previous
        ``accepted`` never queues behind a run: every run is one submission."""
        trace = small_trace[:24]

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                for spec in trace:
                    writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
                    await writer.drain()
                    while (await _next_event(reader))["event"] != "accepted":
                        pass
                writer.write(encode_line({"op": "close"}))
                await writer.drain()
                while (event := await _next_event(reader))["event"] != "closed":
                    pass
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop(drain=False)
            return service, event

        service, closed = asyncio.run(drive())
        assert service.failure is None
        assert closed["metrics"]["submitted"] == len(trace)
        assert closed["metrics"]["runs"] == len(trace)

    def test_failure_mid_run_sends_acks_then_released_decisions_then_fatal_error(
        self, listen, small_gamma_pet
    ):
        """The second ``submit`` of a three-submission run raises.  The
        client has all three ``accepted`` already, then gets the decisions
        the first ``submit`` released, then the fatal error, then EOF."""
        earlier = TaskSpec(arrival=1, task_id=100, task_type=0, deadline=400)
        run = [
            TaskSpec(arrival=5 + i, task_id=i, task_type=i, deadline=400) for i in range(3)
        ]
        twin = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        twin.submit(earlier)
        expected = [(d.task_id, d.action, d.time, d.machine) for d in twin.submit(run[0])]
        assert expected, "the run's first arrival should release task 100's mapping"

        async def drive():
            core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
            core.submit(earlier)
            real_submit, calls = core.submit, []

            def failing_second(spec, *, received=None):
                calls.append(spec.task_id)
                if len(calls) == 2:
                    raise RuntimeError("engine fell over mid-run")
                return real_submit(spec, received=received)

            core.submit = failing_second
            service = SchedulerService(core, listen)
            await service.start()
            reader, writer = await open_endpoint(service.endpoint)
            while not service._writers:
                await asyncio.sleep(0.01)
            [hub_writer] = service._writers
            for spec in run:
                request = {"op": "submit", "task": spec_to_payload(spec)}
                service._inbox.put_nowait((request, time.perf_counter(), hub_writer))
            events = []
            while line := await asyncio.wait_for(reader.readline(), timeout=10.0):
                events.append(decode_line(line))
            await asyncio.wait_for(service.wait_stopped(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
            return service, calls, events

        service, calls, events = asyncio.run(drive())
        assert calls == [0, 1]
        acks, released, (error,) = events[:3], events[3:-1], events[-1:]
        assert acks == [
            {"event": "accepted", "accepted": True, "task_id": spec.task_id} for spec in run
        ]
        assert [
            (e["task_id"], e["action"], e["time"], e.get("machine")) for e in released
        ] == expected
        assert error["event"] == "error" and error["fatal"] is True
        assert "fell over mid-run" in error["message"]
        assert isinstance(service.failure, RuntimeError)
        assert service.metrics.runs == 1


def _submit_line(payload) -> bytes:
    return encode_line({"op": "submit", "task": payload})


def _task(task_id, task_type, arrival, deadline=600) -> dict:
    return {"task_id": task_id, "task_type": task_type, "arrival": arrival, "deadline": deadline}


#: Submitted and acknowledged before the burst, so a later copy of task 0
#: duplicates an id the engine has already injected.
_PREFIX = [_task(0, 0, 10), _task(1, 2, 10), _task(2, 1, 20), _task(3, 3, 20)]
#: One burst.
_BURST = [
    _task(10, 0, 40),
    _task(11, 1, 40),  # the same instant as task 10
    _task(10, 0, 50),  # a duplicate of an id earlier in the run
    _task(0, 0, 60),  # a duplicate of an id injected before the burst
    {"task_id": 12, "task_type": 0, "arrival": 60},  # malformed: no deadline
    _task(14, 1, 70),
    _task(13, 0, 69),  # earlier than task 14, yet after the frontier it leaves
    _task(15, 1, 5),  # late: behind the processed frontier
    _task(16, 2, 80),
    _task(17, 3, 80),
    _task(1, 2, 85),  # admissible by arrival, but its id was injected before
    _task(18, 0, 90),
]


def _sequential_reference(pet):
    """What ``SchedulerCore.submit`` one request at a time answers and decides."""
    core = SchedulerCore(pet, _heuristic(pet), rng=5)
    replies, decisions, accepted, malformed = [], [], [], 0
    for payload in _PREFIX + _BURST:
        try:
            spec = spec_from_payload(payload)
        except ValueError as exc:
            malformed += 1
            replies.append(("error", None, str(exc)))
            continue
        try:
            decisions += core.submit(spec)
        except ValueError as exc:
            replies.append(("error", spec.task_id, str(exc)))
        else:
            replies.append(("accepted", spec.task_id, None))
            accepted.append(spec)
    decisions += core.close()
    rejected = malformed + core.metrics.rejected
    return replies, decision_map(decisions), accepted, core.metrics.submitted, rejected


class TestRunExactness:
    def test_burst_answers_and_decides_as_sequential_admission(
        self, listen, small_gamma_pet
    ):
        """Every reply (kind and message), the submitted/rejected counts and
        the decision map of a burst served in runs equal one-at-a-time
        ``SchedulerCore.submit``; the decisions also equal an offline run of
        the accepted subset."""
        replies, expected, accepted, submitted, rejected = _sequential_reference(
            small_gamma_pet
        )
        by_id = {spec.task_id for spec in accepted}
        assert {13, 14} <= by_id and 15 not in by_id, "the burst lost its edge cases"

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(b"".join(_submit_line(task) for task in _PREFIX))
                await writer.drain()
                events, acks = [], 0
                while acks < len(_PREFIX):
                    events.append(await _next_event(reader))
                    acks += events[-1]["event"] == "accepted"
                writer.write(
                    b"".join(_submit_line(task) for task in _BURST)
                    + encode_line({"op": "close"})
                )
                await writer.drain()
                while line := await asyncio.wait_for(reader.readline(), timeout=30.0):
                    events.append(decode_line(line))
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop(drain=False)
            return service, events

        service, events = asyncio.run(drive())
        assert service.failure is None
        served = [
            (e["event"], e.get("task_id"), e.get("message"))
            for e in events
            if e["event"] in ("accepted", "error")
        ]
        assert served == replies
        [closed] = [e for e in events if e["event"] == "closed"]
        assert (closed["metrics"]["submitted"], closed["metrics"]["rejected"]) == (
            submitted,
            rejected,
        )
        assert decision_map(events) == expected
        offline = _offline(small_gamma_pet, sorted(accepted, key=lambda spec: spec.arrival))
        assert decision_map(events) == offline_decision_map(offline)


class TestWireContract:
    def test_ack_precedes_decisions_and_no_error_follows_it(
        self, listen, small_gamma_pet, small_trace
    ):
        """A replayed trace: each task's ``accepted`` precedes its
        decisions, no per-task ``error`` follows an ``accepted`` for that
        id, and the decisions equal the offline run."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                for spec in small_trace:
                    writer.write(encode_line({"op": "submit", "task": spec_to_payload(spec)}))
                writer.write(encode_line({"op": "close"}))
                await writer.drain()
                events = []
                while line := await asyncio.wait_for(reader.readline(), timeout=30.0):
                    events.append(decode_line(line))
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop(drain=False)
            return service, events

        service, events = asyncio.run(drive())
        assert service.failure is None
        accepted_at: dict[int, int] = {}
        for index, event in enumerate(events):
            kind, task_id = event["event"], event.get("task_id")
            if kind == "accepted":
                assert event["accepted"] is True
                accepted_at.setdefault(task_id, index)
            elif kind == "decision":
                assert accepted_at.get(task_id, index) < index, event
            else:
                assert kind == "closed", event
        assert sorted(accepted_at) == sorted(spec.task_id for spec in small_trace)
        expected = offline_decision_map(_offline(small_gamma_pet, small_trace))
        assert decision_map(events) == expected


class TestBackpressure:
    def test_full_inbox_rejects_submissions_explicitly(self, listen, small_gamma_pet):
        """With the admission loop frozen, submissions beyond the bounded
        inbox are answered accepted=false and never reach the engine."""

        async def drive():
            core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
            service = SchedulerService(core, listen, inbox_limit=2)
            await service.start()
            assert service._admission is not None
            service._admission.cancel()
            await asyncio.sleep(0)
            reader, writer = await open_endpoint(service.endpoint)
            for task_id in range(4):
                writer.write(
                    encode_line(
                        {
                            "op": "submit",
                            "task": {
                                "task_id": task_id,
                                "task_type": 0,
                                "arrival": 1,
                                "deadline": 100,
                            },
                        }
                    )
                )
            await writer.drain()
            rejections = [decode_line(await reader.readline()) for _ in range(2)]
            await service.stop(drain=False)
            writer.close()
            return core, rejections

        core, rejections = asyncio.run(drive())
        for event in rejections:
            assert event["event"] == "accepted"
            assert event["accepted"] is False
            assert event["reason"] == "overloaded"
        assert {event["task_id"] for event in rejections} == {2, 3}
        assert core.metrics.rejected_overload == 2
        assert core.metrics.submitted == 0  # nothing reached the engine

    def test_inbox_limit_validated(self, tmp_path, small_gamma_pet):
        core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        with pytest.raises(ValueError, match="inbox_limit"):
            SchedulerService(core, tmp_path / "serve.sock", inbox_limit=0)


class TestTcpTransport:
    def test_tcp_stream_matches_offline(self, small_gamma_pet, small_trace):
        """The same wire protocol over TCP: replay-equivalence holds and
        the ephemeral bound port is readable back from the endpoint."""

        async def drive():
            core = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
            service = SchedulerService(core, "tcp:127.0.0.1:0")
            await service.start()
            assert service.socket_path is None
            host, port = service.endpoint.rsplit(":", 2)[-2:]
            assert host == "127.0.0.1" and int(port) > 0
            try:
                return await replay_trace(
                    service.endpoint, small_trace, rate=10_000.0, close=True
                )
            finally:
                await service.stop(drain=False)

        outcome = asyncio.run(drive())
        offline = _offline(small_gamma_pet, small_trace)
        assert decision_map(outcome.decisions) == offline_decision_map(offline)
        assert outcome.closed is not None
        assert outcome.closed["summary"] == offline.summary()


class TestEndpoints:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("/tmp/serve.sock", ("unix", "/tmp/serve.sock")),
            ("unix:/tmp/serve.sock", ("unix", "/tmp/serve.sock")),
            ("tcp:127.0.0.1:7077", ("tcp", "127.0.0.1", 7077)),
            ("tcp://127.0.0.1:7077", ("tcp", "127.0.0.1", 7077)),
            ("tcp::0", ("tcp", "127.0.0.1", 0)),
        ],
    )
    def test_parse_endpoint(self, value, expected):
        assert parse_endpoint(value) == expected

    @pytest.mark.parametrize(
        "value", ["", "tcp:7077", "tcp:host:notaport", "tcp:host:70777"]
    )
    def test_bad_endpoints_rejected(self, value):
        with pytest.raises(ValueError):
            parse_endpoint(value)


class TestWireProtocol:
    def test_spec_payload_round_trip(self):
        spec = TaskSpec(arrival=5, task_id=3, task_type=2, deadline=99)
        assert spec_from_payload(spec_to_payload(spec)) == spec

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"task_id": 1, "task_type": 0, "arrival": 4},  # missing deadline
            {"task_id": 1, "task_type": 0, "arrival": 4.5, "deadline": 50},
            {"task_id": True, "task_type": 0, "arrival": 4, "deadline": 50},
            {"task_id": 1, "task_type": 0, "arrival": float("inf"), "deadline": 50},
            {"task_id": 1, "task_type": 0, "arrival": 60, "deadline": 50},  # deadline<arrival
            "not an object",
            {"task_id": 10**400, "task_type": 0, "arrival": 4, "deadline": 50},
            {"task_id": 10**30 - 1, "task_type": 0, "arrival": 4, "deadline": 50},
            {"task_id": 1, "task_type": 0, "arrival": 4, "deadline": 1e300},
        ],
    )
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(ValueError):
            spec_from_payload(payload)

    def test_integer_above_2_53_round_trips_exactly(self):
        spec = TaskSpec(arrival=5, task_id=2**53 + 1, task_type=2, deadline=99)
        line = encode_line(spec_to_payload(spec))
        assert spec_from_payload(decode_line(line)).task_id == 2**53 + 1


class TestOverlongLine:
    @pytest.mark.parametrize("terminated", [True, False])
    def test_overlong_line_is_answered_and_closed(
        self, listen, small_gamma_pet, terminated
    ):
        """A request line past the stream limit — newline-terminated or not
        — gets an error event naming the limit and EOF; another client is
        still served, and asyncio logs no unhandled exception."""

        async def drive():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                line = b'{"op":"stats","pad":"' + b"x" * 70_000 + b'"}'
                writer.write(line + b"\n" if terminated else line)
                await writer.drain()
                error = decode_line(await reader.readline())
                eof = await reader.readline()
                writer.close()
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(encode_line({"op": "stats"}))
                await writer.drain()
                stats = decode_line(await reader.readline())
                writer.close()
            finally:
                await service.stop(drain=False)
            return service, error, eof, stats, unhandled

        service, error, eof, stats, unhandled = asyncio.run(drive())
        assert error["event"] == "error" and "fatal" not in error
        assert str(MAX_LINE_BYTES) in error["message"]
        assert eof == b""
        assert stats["event"] == "stats"
        assert unhandled == []
        assert service.failure is None


class TestOversizedIntegers:
    def test_oversized_task_id_is_a_plain_rejection(self, listen, small_gamma_pet):
        """A 401-digit task_id is answered with a non-fatal error; the
        service stays up and takes the next submit, whose 2**53+1 id comes
        back to the digit."""

        def submit(task_id):
            task = {"task_id": task_id, "task_type": 0, "arrival": 1, "deadline": 100}
            return encode_line({"op": "submit", "task": task})

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(submit(10**400))
                await writer.drain()
                error = decode_line(await reader.readline())
                writer.write(submit(2**53 + 1))
                await writer.drain()
                while (accepted := decode_line(await reader.readline()))["event"] != "accepted":
                    pass
                writer.close()
            finally:
                await service.stop(drain=False)
            return service, error, accepted

        service, error, accepted = asyncio.run(drive())
        assert error["event"] == "error" and "fatal" not in error
        assert "task_id" in error["message"]
        assert accepted["accepted"] is True and accepted["task_id"] == 2**53 + 1
        assert service.failure is None


class TestTaskTypeOutsideThePet:
    def test_rejected_in_place_and_the_next_task_is_served(self, listen, small_gamma_pet):
        """Type 99 on the 4-type PET gets a non-fatal per-task error naming
        both counts; the service stays up, accepts and decides the next
        task, and the run counts only that one."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(_submit_line(_task(0, 99, 5, 400)))
                await writer.drain()
                error = await _next_event(reader)
                writer.write(_submit_line(_task(1, 0, 6, 400)) + encode_line({"op": "close"}))
                await writer.drain()
                events = []
                while line := await asyncio.wait_for(reader.readline(), timeout=30.0):
                    events.append(decode_line(line))
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop(drain=False)
            return service, error, events

        service, error, events = asyncio.run(drive())
        assert error == {
            "event": "error",
            "task_id": 0,
            "message": "task 0 has type 99, but the PET has 4 task types",
        }
        assert events[0] == {"event": "accepted", "accepted": True, "task_id": 1}
        assert {e["task_id"] for e in events if e["event"] == "decision"} == {1}
        [closed] = [e for e in events if e["event"] == "closed"]
        assert closed["summary"]["tasks"] == 1
        assert closed["metrics"]["rejected"] == 1
        assert service.failure is None


async def _connect_registered(service):
    """A client connection the service has registered: one ``stats`` round trip."""
    reader, writer = await open_endpoint(service.endpoint)
    writer.write(encode_line({"op": "stats"}))
    await writer.drain()
    assert (await _next_event(reader))["event"] == "stats"
    return reader, writer


async def _events_until_eof(reader) -> list[dict]:
    events = []
    while line := await asyncio.wait_for(reader.readline(), timeout=30.0):
        events.append(decode_line(line))
    return events


async def _hang_up(writer) -> None:
    writer.close()
    with suppress(ConnectionError):
        await writer.wait_closed()


class TestConnections:
    """The read loop and the client set, over either transport."""

    @pytest.mark.parametrize(
        "line",
        [b"not json", b"[1, 2]", b"\xff\xfe"],
        ids=["not-json", "not-an-object", "not-utf8"],
    )
    def test_undecodable_line_is_answered_and_the_connection_kept(
        self, listen, small_gamma_pet, line
    ):
        """A line that is no JSON object gets a non-fatal error naming no
        task, blank lines get nothing, and the same connection then
        submits and is accepted."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(line + b"\n\n   \n" + _submit_line(_task(0, 0, 5, 400)))
                await writer.drain()
                replies = [await _next_event(reader), await _next_event(reader)]
                await _hang_up(writer)
            finally:
                await service.stop(drain=False)
            return service, replies

        service, (error, accepted) = asyncio.run(drive())
        assert set(error) == {"event", "message"} and error["event"] == "error"
        assert accepted == {"event": "accepted", "accepted": True, "task_id": 0}
        assert service.metrics.rejected == 0
        assert service.failure is None

    def test_unknown_op_is_a_non_fatal_error(self, listen, small_gamma_pet):
        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(encode_line({"op": "explode"}) + encode_line({"op": "stats"}))
                await writer.drain()
                replies = [await _next_event(reader), await _next_event(reader)]
                await _hang_up(writer)
            finally:
                await service.stop(drain=False)
            return service, replies

        service, (error, stats) = asyncio.run(drive())
        assert error == {"event": "error", "message": "unknown op 'explode'"}
        assert stats["event"] == "stats"
        assert service.failure is None

    def test_flush_maps_the_held_instant_before_answering(self, listen, small_gamma_pet):
        """The time-5 batch is held open until ``flush``: its decision goes
        out first, then ``flushed``, as a core flushed directly decides."""
        spec = TaskSpec(arrival=5, task_id=0, task_type=0, deadline=400)
        twin = SchedulerCore(small_gamma_pet, _heuristic(small_gamma_pet), rng=5)
        assert twin.submit(spec) == []
        expected = [(d.task_id, d.action, d.time, d.machine) for d in twin.flush()]
        assert expected

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                writer.write(_submit_line(spec_to_payload(spec)))
                await writer.drain()
                accepted = await _next_event(reader)
                writer.write(encode_line({"op": "flush"}))
                await writer.drain()
                events = []
                while (event := await _next_event(reader))["event"] != "flushed":
                    events.append(event)
                await _hang_up(writer)
            finally:
                await service.stop(drain=False)
            return service, accepted, events

        service, accepted, events = asyncio.run(drive())
        assert accepted == {"event": "accepted", "accepted": True, "task_id": 0}
        assert [
            (e["task_id"], e["action"], e["time"], e.get("machine")) for e in events
        ] == expected
        assert service.failure is None

    def test_stats_reports_every_counter_and_no_histogram_buckets(
        self, listen, small_gamma_pet, small_trace
    ):
        trace = small_trace[:6]

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await open_endpoint(service.endpoint)
                for spec in trace:
                    writer.write(_submit_line(spec_to_payload(spec)))
                    await writer.drain()
                    while (await _next_event(reader))["event"] != "accepted":
                        pass
                writer.write(encode_line({"op": "stats"}))
                await writer.drain()
                while (stats := await _next_event(reader))["event"] != "stats":
                    pass
                await _hang_up(writer)
            finally:
                await service.stop(drain=False)
            return service, stats

        service, stats = asyncio.run(drive())
        assert set(stats) == {"event", "metrics"}
        metrics = stats["metrics"]
        assert set(metrics) == set(service.metrics.snapshot())
        assert metrics["submitted"] == len(trace)
        assert metrics["runs"] == len(trace)
        assert set(metrics["admission_latency"]) == {
            "count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"
        }

    def test_decisions_and_closed_reach_every_client(
        self, listen, small_gamma_pet, small_trace
    ):
        """A watcher that submits nothing receives every decision and the
        ``closed`` event, but none of the submitter's acks."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                watcher_reader, watcher = await _connect_registered(service)
                reader, writer = await open_endpoint(service.endpoint)
                for spec in small_trace:
                    writer.write(_submit_line(spec_to_payload(spec)))
                writer.write(encode_line({"op": "close"}))
                await writer.drain()
                submitted = await _events_until_eof(reader)
                watched = await _events_until_eof(watcher_reader)
                await _hang_up(writer)
                await _hang_up(watcher)
            finally:
                await service.stop(drain=False)
            return service, submitted, watched

        service, submitted, watched = asyncio.run(drive())
        offline = _offline(small_gamma_pet, small_trace)
        assert decision_map(watched) == decision_map(submitted) == offline_decision_map(offline)
        assert {e["event"] for e in watched} == {"decision", "closed"}
        [closed] = [e for e in watched if e["event"] == "closed"]
        assert closed["summary"] == offline.summary()
        assert service.failure is None

    def test_a_client_that_hangs_up_leaves_the_others_served(
        self, listen, small_gamma_pet, small_trace
    ):
        """One client submits the first half, reads its acks and hangs up
        while those tasks are still in flight; decisions meant for it are
        dropped with its connection, and a client connected throughout
        submits the rest and gets the offline run's every decision."""
        mid = len(small_trace) // 2

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()
            try:
                reader, writer = await _connect_registered(service)
                early_reader, early = await open_endpoint(service.endpoint)
                for spec in small_trace[:mid]:
                    early.write(_submit_line(spec_to_payload(spec)))
                await early.drain()
                acks = 0
                while acks < mid:
                    acks += (await _next_event(early_reader))["event"] == "accepted"
                await _hang_up(early)
                for spec in small_trace[mid:]:
                    writer.write(_submit_line(spec_to_payload(spec)))
                writer.write(encode_line({"op": "close"}))
                await writer.drain()
                events = await _events_until_eof(reader)
                await _hang_up(writer)
            finally:
                await service.stop(drain=False)
            return service, events

        service, events = asyncio.run(drive())
        offline = _offline(small_gamma_pet, small_trace)
        assert decision_map(events) == offline_decision_map(offline)
        [closed] = [e for e in events if e["event"] == "closed"]
        assert closed["summary"] == offline.summary()
        assert service.failure is None
        assert service._writers == set()

    def test_dispatch_failure_is_fatal_and_told_to_its_client(
        self, listen, small_gamma_pet
    ):
        """A request the service fails to queue records the failure, tells
        that client with a fatal error, and shuts the service down."""

        async def drive():
            service = _service(small_gamma_pet, listen)
            await service.start()

            def broken(item):
                raise RuntimeError("inbox fell over")

            service._inbox.put_nowait = broken
            reader, writer = await open_endpoint(service.endpoint)
            writer.write(_submit_line(_task(0, 0, 5, 400)))
            await writer.drain()
            events = await _events_until_eof(reader)
            await asyncio.wait_for(service.wait_stopped(), timeout=10.0)
            await _hang_up(writer)
            return service, events

        service, events = asyncio.run(drive())
        assert events == [
            {
                "event": "error",
                "fatal": True,
                "message": "internal error: RuntimeError: inbox fell over",
            }
        ]
        assert isinstance(service.failure, RuntimeError)
