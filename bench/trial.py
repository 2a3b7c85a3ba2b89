"""The three ``trial-*`` workloads: one ``HCSimulator.run`` per repetition.

Same scale-trace builder, same PAMF mapper, three regimes that move the
time between layers (see README for the predicted shares):

``trial-event``    load 1.15, per-event mapping: state sync + scalar chains.
``trial-batched``  load 1.15, 120-unit rounds: ScoreTable + kernels.
``trial-oversub``  load 3.0,  per-event: the pruner and the drop path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import tracing
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
    terminal_failures,
)

MIN_REPETITIONS = 3


@dataclass(frozen=True)
class TrialShape:
    num_tasks: int
    load_factor: float
    batch_window: int
    smoke_tasks: int = 160


# Sized so one repetition is 1-2 s on the 2-core sandbox: a 26 s run then
# holds 15-22 repetitions, and a quiet stretch of the shared host anywhere
# in the run that is as long as one repetition shows every step at real speed.
SHAPES = {
    "trial-event": TrialShape(num_tasks=1000, load_factor=1.15, batch_window=0),
    "trial-batched": TrialShape(num_tasks=2400, load_factor=1.15, batch_window=120),
    "trial-oversub": TrialShape(num_tasks=600, load_factor=3.0, batch_window=0),
}


class StepClock:
    """``EngineObserver`` stamping the end of every mapping event.

    The gap between consecutive stamps is the host time the engine spent on
    one scheduling step — what a caller feeding the engine online waits for
    per decision.  Two no-op callbacks and one ``append`` per step is well
    under 0.1% of a step, so it rides along on the untraced repetitions.
    """

    def __init__(self) -> None:
        self.stamps: list[int] = []

    def on_assigned(self, task, machine_index, now) -> None:
        pass

    def on_terminal(self, task) -> None:
        pass

    def on_mapping_event(self, now, decision) -> None:
        self.stamps.append(time.perf_counter_ns())


def build_inputs(shape: TrialShape, options: Options):
    """One set-up: the PET and the trace, and the seconds building them took."""
    from repro.pet.builders import build_spec_pet
    from repro.workload.scale import ScaleTraceConfig, generate_scale_trace

    num_tasks = shape.smoke_tasks if options.smoke else shape.num_tasks
    config = ScaleTraceConfig(num_tasks=num_tasks, load_factor=shape.load_factor)
    start = time.perf_counter()
    pet = build_spec_pet(rng=PET_SEED)
    trace = generate_scale_trace(config, rng=options.seed, pet=pet)
    return pet, trace, time.perf_counter() - start


def make_simulator(pet, shape: TrialShape, options: Options, *, telemetry=None):
    from repro.heuristics.registry import make_heuristic
    from repro.simulator.engine import HCSimulator, SimulatorConfig

    heuristic = make_heuristic(HEURISTIC, num_task_types=pet.num_task_types)
    if telemetry is not None:
        heuristic = tracing.TimedHeuristic(heuristic, telemetry)
    config = SimulatorConfig(
        batch_window=shape.batch_window, kernel_backend=options.kernel_backend
    )
    return HCSimulator(pet, heuristic, config=config, rng=options.seed), heuristic


@dataclass
class Repetition:
    wall_s: float
    #: Host time of every scheduling step, plus the tail after the last one.
    step_ms: list[float]
    result: object


def run_repetition(pet, trace, shape: TrialShape, options: Options) -> Repetition:
    sim, _ = make_simulator(pet, shape, options)
    clock = StepClock()
    sim.observer = clock
    start = time.perf_counter_ns()
    result = sim.run(trace)
    end = time.perf_counter_ns()
    stamps = [start, *clock.stamps, end]
    step_ms = [(b - a) * 1e-6 for a, b in zip(stamps, stamps[1:])]
    return Repetition((end - start) * 1e-9, step_ms, result)


def repeat_for(seconds: float, one_repetition, *, smoke: bool) -> list:
    """Untimed warm-up, then repetitions until the budget is spent."""
    if smoke:
        return [one_repetition()]
    one_repetition()
    repetitions = []
    deadline = time.perf_counter() + seconds
    while len(repetitions) < MIN_REPETITIONS or time.perf_counter() < deadline:
        repetitions.append(one_repetition())
    return repetitions


def check_result(result, trace) -> tuple[int, dict[str, bool]]:
    failed = terminal_failures(result.tasks)
    counted = sum(result.status_counts().values())
    return failed, {"every_task_terminal_once": failed == 0 and counted == len(trace)}


def batching_reduces_events(pet, trace, shape: TrialShape, options: Options) -> bool:
    """Rounds must cut mapping events; checked on a prefix to stay cheap."""
    from repro.serve.loadgen import slice_trace

    prefix = slice_trace(trace, min(len(trace), 300))
    events = []
    for candidate in (shape, SHAPES["trial-event"]):
        sim, _ = make_simulator(pet, candidate, options)
        events.append(sim.run(prefix).counters.mapping_events)
    return events[0] < events[1]


def rep_signature(result) -> tuple:
    from repro.serve.service import offline_decision_map

    return (signature(offline_decision_map(result)), tuple(result.counters.as_dict().items()))


def measure(name: str, options: Options) -> Outcome:
    """Untraced repetitions → the end-to-end metrics."""
    shape = SHAPES[name]
    setups = []

    def set_up_and_run() -> Repetition:
        # Set-up is redone before every repetition so that it, too, gets one
        # reading per stretch of the run.
        pet, trace, setup_s = build_inputs(shape, options)
        setups.append(setup_s)
        return run_repetition(pet, trace, shape, options)

    pet, trace, _ = build_inputs(shape, options)
    reps = repeat_for(options.seconds, set_up_and_run, smoke=options.smoke)
    last = reps[-1].result
    outcome = Outcome(attempted=len(trace))
    outcome.failed, outcome.checks = check_result(last, trace)
    outcome.checks["counts_repeat_exactly"] = (
        len({rep_signature(rep.result) for rep in reps}) == 1
    )
    if shape.batch_window:
        outcome.checks["batched_has_fewer_mapping_events"] = batching_reduces_events(
            pet, trace, shape, options
        )
    n = len(trace)
    steps = [rep.step_ms for rep in reps]
    outcome.metrics = {
        "tasks_per_s": floor_sample("1/s", steps, lambda ms: n / (sum(ms) * 1e-3)),
        "latency_p50_ms": floor_sample("ms", steps, lambda ms: percentile(ms, 50)),
        "latency_p90_ms": floor_sample("ms", steps, lambda ms: percentile(ms, TAIL)),
        "robustness_pct": Sample(last.robustness_percent(), "%"),
        "peak_rss_mb": Sample(peak_rss_mb(), "MiB"),
        "setup_s": Sample(min(setups), "s", tuple(setups)),
    }
    outcome.info = {
        "tasks": n,
        "repetitions": len(reps),
        "wall_s": [rep.wall_s for rep in reps],
        "counters": last.counters.as_dict(),
        "signature": rep_signature(last)[0],
        "latency_p99_ms": percentile(floor(steps), 99),
    }
    return outcome


def trace_layers(name: str, options: Options) -> Outcome:
    """One traced repetition (best of two) → the per-layer table."""
    from repro.obs.telemetry import Telemetry, use_telemetry

    shape = SHAPES[name]
    pet, trace, _ = build_inputs(shape, options)
    untraced = [run_repetition(pet, trace, shape, options) for _ in range(1 if options.smoke else 3)]
    reference = untraced[-1]
    traced = []
    for _ in range(1 if options.smoke else 2):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            sim, heuristic = make_simulator(pet, shape, options, telemetry=telemetry)
            start = time.perf_counter_ns()
            result = sim.run(trace)
            wall_ns = time.perf_counter_ns() - start
            telemetry.add_span(tracing.ROOT_SPAN, start, wall_ns)
        traced.append((wall_ns * 1e-9, telemetry, heuristic, result))
    wall_s, telemetry, heuristic, result = min(traced, key=lambda item: item[0])

    outcome = Outcome(attempted=len(trace))
    outcome.failed, outcome.checks = check_result(result, trace)
    outcome.checks["traced_equals_untraced"] = rep_signature(result) == rep_signature(
        reference.result
    )
    layers = tracing.layer_metrics(
        telemetry,
        [heuristic],
        tasks=len(trace),
        # The first untraced repetition is the warm-up.
        untraced_s=min(rep.wall_s for rep in untraced[-2:]),
    )
    outcome.info = {
        "telemetry": telemetry,
        "layers": layers,
        "traced_wall_s": wall_s,
        "signature": rep_signature(result)[0],
    }
    return outcome
