"""The never-perturbs contract: tracing cannot change a single decision.

The seeded 660-task reference trial (``examples/transcoding_660.trace.json``
with PAMF — the same pinned trial the serve and decision-digest suites gate
on) must produce a byte-identical decision sequence with full tracing
enabled as with the default :class:`NullTelemetry`, and obs configuration
must never reach sweep cache keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.heuristics.registry import make_heuristic
from repro.obs import NULL_TELEMETRY, NullTelemetry, Telemetry, use_telemetry
from repro.pet.builders import build_transcoding_pet
from repro.simulator.engine import HCSimulator
from repro.sweep.spec import (
    HeuristicSpec,
    PETSpec,
    SweepPoint,
    TraceSpec,
    point_payload,
)
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)


class _RecordingObserver:
    """Serialises the full decision stream as comparable tuples."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_assigned(self, task, machine_index, now) -> None:
        self.events.append(("assigned", task.task_id, machine_index, now))

    def on_terminal(self, task) -> None:
        self.events.append(
            ("terminal", task.task_id, task.status.value, task.dropped_at)
        )

    def on_mapping_event(self, now, decision) -> None:
        self.events.append(
            ("mapping", now, len(decision.assignments), len(decision.deferrals))
        )


def _reference_trial(telemetry) -> tuple[list[tuple], tuple]:
    pet = build_transcoding_pet(rng=2019)
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    sim = HCSimulator(pet, heuristic, rng=2021)
    observer = _RecordingObserver()
    sim.observer = observer
    with use_telemetry(telemetry):
        result = sim.run(load_trace(REFERENCE_TRACE))
    signature = tuple(
        (t.task_id, t.status.value, t.machine, t.mapped_at, t.exec_start, t.exec_end)
        for t in result.tasks
    )
    return observer.events, signature


@pytest.fixture(scope="module")
def traced_and_null():
    telemetry = Telemetry()
    traced = _reference_trial(telemetry)
    null = _reference_trial(NULL_TELEMETRY)
    return traced, null, telemetry


def test_reference_trial_decisions_are_bit_identical(traced_and_null):
    (traced_events, traced_sig), (null_events, null_sig), _ = traced_and_null
    assert traced_events == null_events
    assert traced_sig == null_sig
    # Byte-identical, not merely equal-compared:
    encode = lambda events: json.dumps(events, sort_keys=True).encode()  # noqa: E731
    assert encode(traced_events) == encode(null_events)


def test_tracing_actually_recorded_the_trial(traced_and_null):
    _, _, telemetry = traced_and_null
    names = {name for name, *_ in telemetry.spans}
    assert any(name.startswith("engine.mapping_event.") for name in names)
    assert any(name.startswith("kernel.") for name in names)
    assert "score_table.fill" in names
    assert "state.advance" in names
    assert telemetry.counters["engine.events.arrival"] == 660


def test_the_kernel_spans_are_the_scoring_calls(traced_and_null):
    """One ``kernel.success_probability`` span per kernel call, at most one per fill or rescore."""
    _, _, telemetry = traced_and_null
    kernel = {name: h.count for name, h in telemetry.timings.items() if name.startswith("kernel.")}
    assert list(kernel) == ["kernel.success_probability"]
    calls = kernel["kernel.success_probability"]
    counters = telemetry.counters
    assert 0 < calls <= counters["score_table.fills"] + counters["score_table.rescores"]


def test_score_reuse_is_counted_in_the_traced_trial(traced_and_null):
    """The trial that equals the untraced one did carry scores, and counted them."""
    _, _, telemetry = traced_and_null
    counters = telemetry.counters
    fills = [attrs for name, _, _, attrs in telemetry.spans if name == "score_table.fill"]
    assert len(fills) == counters["score_table.fills"]
    grid = sum(attrs["tasks"] * attrs["machines"] for attrs in fills)
    assert 0 < counters["score_table.pairs_reused"] < grid
    assert 0 < counters["score_table.pairs_scored"]


def test_state_sync_is_no_longer_dark(traced_and_null):
    _, _, telemetry = traced_and_null
    counters = telemetry.counters
    advances = [attrs for name, _, _, attrs in telemetry.spans if name == "state.advance"]
    assert counters["state.chain_steps"] == sum(a["computed"] for a in advances) > 0
    assert counters["state.chain_steps_adopted"] == sum(a["adopted"] for a in advances) > 0
    # Demand-driven: far fewer resolutions than machines x mapping events.
    assert 0 < counters["state.availability_resolved"] < 8 * counters["engine.mapping_events"]


class _CountingNull(NullTelemetry):
    """Disabled registry that counts how often a hook site asks."""

    def __init__(self) -> None:
        self.reads = 0

    @property
    def enabled(self) -> bool:
        self.reads += 1
        return False


def test_disabled_hook_sites_stay_inside_the_overhead_gates_budget():
    """``test_bench_obs_overhead`` prices 25 disabled hooks per engine event.

    The state layer's hooks sit on the per-query path, so count what a
    disabled run really executes: the <2% gate only means something while
    the hook count it multiplies by is an upper bound.
    """
    registry = _CountingNull()
    assert _reference_trial(registry) == _reference_trial(NULL_TELEMETRY)
    engine_events = 2 * 660  # arrival + finish per task, as the gate counts
    assert 0 < registry.reads / engine_events < 25


def test_score_reuse_adds_no_disabled_hook_site(small_gamma_pet):
    """A fill asks ``enabled`` twice (span start, span end), carried or not."""
    from repro.core.pmf import DiscretePMF
    from repro.heuristics.base import ScoreTable, VirtualSystemState
    from repro.simulator.machine import Machine
    from repro.simulator.mapping import MappingContext
    from repro.simulator.task import Task
    from repro.workload.spec import TaskSpec

    pet = small_gamma_pet
    context = MappingContext(
        now=0,
        batch=tuple(
            Task(TaskSpec(arrival=0, task_id=i, task_type=i % 4, deadline=90 + i))
            for i in range(12)
        ),
        machines=tuple(Machine(j, name) for j, name in enumerate(pet.machine_names)),
        pet=pet,
    )
    # Availabilities given up front: no state query (and its hooks) in the fill.
    virtual = VirtualSystemState(
        context,
        availability_override={j: DiscretePMF.point(3 * j) for j in range(pet.num_machines)},
    )
    registry = _CountingNull()
    table = ScoreTable()
    with use_telemetry(registry):
        table.fill(context, virtual)
        first = (table.pairs_scored, table.pairs_reused)
        after_first = registry.reads
        table.fill(context, virtual)
    assert first == (12 * pet.num_machines, 0)
    assert (table.pairs_scored, table.pairs_reused) == (0, 12 * pet.num_machines)
    assert after_first == 2 and registry.reads == 4


def _reference_point() -> SweepPoint:
    return SweepPoint(
        label="obs-determinism",
        pet=PETSpec(kind="transcoding", seed=2019),
        heuristic=HeuristicSpec(name="PAMF"),
        workload=None,
        config=ExperimentConfig(trials=1, seed=2019),
        trace=TraceSpec(path=str(REFERENCE_TRACE)),
    )


def test_cache_key_is_identical_with_tracing_enabled():
    baseline = _reference_point().cache_key()
    with use_telemetry(Telemetry()):
        traced = _reference_point().cache_key()
    assert traced == baseline


def test_obs_never_enters_point_payload():
    payload = point_payload(_reference_point())
    flattened = json.dumps(payload, sort_keys=True, default=str).lower()
    assert "obs" not in json.loads(json.dumps(payload, default=str)).keys()
    assert "telemetry" not in flattened
