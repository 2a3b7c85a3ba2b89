"""The scheduler service's offline core: admission engine and decision views.

:class:`SchedulerCore` is the synchronous, externally-clocked admission
engine.  ``submit()`` is the in-process API: it advances the simulator's
virtual clock to the submission watermark, injects the task, and returns
every decision the engine produced on the way.  Virtual time comes from the
submissions themselves (each carries its arrival instant), so wall-clock
pacing never influences decisions — the property the replay-equivalence
suite pins: streaming a trace in arrival order yields decisions
bit-identical to an offline :meth:`HCSimulator.run` of the same trace,
compared through :func:`decision_map` and :func:`offline_decision_map`.

The asyncio socket server that hosts a core,
:class:`~repro.serve.server.SchedulerService`, lives in its own module:
this one imports no network stack, so a process that only compares
decisions (the decision digests, the perf ledger's per-repetition
signature) never loads asyncio or the wire protocol.

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
acceptance: the server answers ``accepted`` as soon as it passes, before
the engine advances.  A failure past that point is internal and fatal to
the service, never a per-task ``error``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..heuristics import make_heuristic
from ..obs.telemetry import active as obs_active
from ..pet.matrix import PETMatrix
from ..simulator.engine import HCSimulator, MappingHeuristicProtocol, SimulatorConfig
from ..simulator.mapping import MappingDecision
from ..simulator.metrics import SimulationResult
from ..simulator.task import Task, TaskStatus
from ..workload.spec import TaskSpec
from .metrics import ServiceMetrics

__all__ = [
    "Decision",
    "SchedulerCore",
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
        # ``HCSimulator.run``'s two calls.  Every pending event before this
        # arrival is safe to process; there is one only if it is the latest.
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
        # finished task costs one row of outcome columns as narrow as its
        # values (~37 bytes) plus its id in the engine's set of injected ids
        # (~83 bytes; scripts/result_footprint.py prints both).
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
