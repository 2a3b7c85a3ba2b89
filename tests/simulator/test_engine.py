"""Integration tests for the event-driven HC simulator."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.heuristics import base as heuristics_base
from repro.heuristics.baselines import MinCompletionMinCompletion
from repro.heuristics.pam import PruningAwareMapper
from repro.heuristics.registry import make_heuristic
from repro.obs import Telemetry, use_telemetry
from repro.pet.builders import build_transcoding_pet
from repro.simulator.engine import HCSimulator, SimulatorConfig, simulate
from repro.simulator.mapping import MappingDecision
from repro.simulator.task import DropReason, TaskStatus
from repro.workload.spec import TaskSpec
from repro.workload.traces import load_trace

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent / "examples" / "transcoding_660.trace.json"
)


class TestBasicRuns:
    def test_all_tasks_reach_terminal_state(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=1)
        assert len(result.tasks) == len(small_trace)
        assert all(t.is_terminal for t in result.tasks)

    def test_light_load_mostly_succeeds(self, small_gamma_pet, light_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), light_trace, rng=1)
        assert result.robustness_percent() > 80.0

    def test_on_time_tasks_satisfy_deadlines(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=2)
        for task in result.tasks:
            if task.on_time:
                assert task.exec_end is not None and task.exec_end <= task.deadline

    def test_completed_tasks_have_consistent_times(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=2)
        for task in result.tasks:
            if task.status is TaskStatus.COMPLETED:
                assert task.exec_start is not None
                assert task.exec_end == task.exec_start + task.actual_execution_time
                assert task.exec_start >= task.arrival

    def test_dropped_tasks_have_reasons(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=2)
        for task in result.tasks:
            if task.status is TaskStatus.DROPPED:
                assert task.drop_reason is not None

    def test_busy_time_consistency(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=3)
        total_task_busy = sum(t.busy_time for t in result.tasks)
        assert sum(result.machine_busy_times) == pytest.approx(total_task_busy)

    def test_counters_are_coherent(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=3)
        counters = result.counters
        assert counters.mapping_events > 0
        assert counters.assignments <= len(small_trace)
        completed = sum(1 for t in result.tasks if t.status is TaskStatus.COMPLETED)
        assert counters.completions == completed


class TestDeterminism:
    def test_same_seed_same_result(self, small_gamma_pet, small_trace):
        a = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=7)
        b = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=7)
        assert a.robustness_percent() == b.robustness_percent()
        assert a.total_cost() == b.total_cost()
        assert [t.status for t in a.tasks] == [t.status for t in b.tasks]

    def test_different_seed_usually_differs(self, small_gamma_pet, small_trace):
        a = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=7)
        b = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=8)
        differs = a.robustness_percent() != b.robustness_percent() or [
            t.exec_start for t in a.tasks
        ] != [t.exec_start for t in b.tasks]
        assert differs


class TestBatchOrder:
    """Every mapping event sees the batch queue in (arrival, task id) order."""

    @pytest.mark.parametrize("batch_window", [0, 40])
    def test_streamed_arrivals_in_any_id_order(self, small_gamma_pet, batch_window):
        seen: list[tuple] = []

        class Deferring:
            """Assigns nothing, so tasks pile up and leave only by deadline."""

            name = "defer-all"

            def reset(self) -> None:
                pass

            def map_tasks(self, context):
                seen.append(tuple((t.arrival, t.task_id) for t in context.batch))
                return MappingDecision()

        rng = np.random.default_rng(8)
        arrivals = np.sort(rng.integers(0, 60, size=80)).tolist()
        # Ids unrelated to arrival order, several tasks per instant.
        ids = rng.permutation(80).tolist()
        sim = HCSimulator(
            small_gamma_pet, Deferring(), config=SimulatorConfig(batch_window=batch_window)
        )
        sim.begin_stream()
        for arrival, task_id in zip(arrivals, ids):
            sim.inject_task(
                TaskSpec(
                    arrival=arrival,
                    task_id=task_id,
                    task_type=task_id % 4,
                    deadline=arrival + int(rng.integers(5, 90)),
                )
            )
            if rng.random() < 0.3:
                sim.advance_until(arrival)
        sim.finish_stream()
        assert any(len(batch) > 10 for batch in seen)
        assert any(
            later[1] < earlier[1] for batch in seen for earlier, later in zip(batch, batch[1:])
        )  # ids really do run backwards within an instant
        assert all(batch == tuple(sorted(batch)) for batch in seen)


class TestStreamAdmission:
    """``validate_inject`` refuses what the live stream cannot take, untouched."""

    def _streaming(self, pet):
        sim = HCSimulator(pet, MinCompletionMinCompletion(), rng=3)
        sim.begin_stream()
        return sim

    @pytest.mark.parametrize("task_type", [4, 5, 99])
    def test_task_type_without_a_pet_row_rejected(self, small_gamma_pet, task_type):
        sim = self._streaming(small_gamma_pet)
        spec = TaskSpec(arrival=5, task_id=0, task_type=task_type, deadline=400)
        message = f"task 0 has type {task_type}, but the PET has 4 task types"
        with pytest.raises(ValueError, match=message):
            sim.validate_inject(spec)
        with pytest.raises(ValueError, match=message):
            sim.inject_task(spec)
        assert sim.tasks == {}
        assert not sim.events

    def test_last_task_type_of_the_pet_admitted(self, small_gamma_pet):
        sim = self._streaming(small_gamma_pet)
        spec = TaskSpec(arrival=5, task_id=0, task_type=3, deadline=400)
        sim.validate_inject(spec)
        assert sim.inject_task(spec).task_type == 3
        result = sim.finish_stream()
        assert len(result.tasks) == 1

    def test_rejected_type_leaves_the_stream_identical(self, small_gamma_pet, small_trace):
        """A bad type injected mid-stream changes no decision of the run."""
        control = self._streaming(small_gamma_pet)
        probed = self._streaming(small_gamma_pet)
        mid = len(small_trace) // 2
        for index, spec in enumerate(small_trace):
            for sim in (control, probed):
                sim.inject_task(spec)
                sim.advance_until(spec.arrival)
            if index == mid:
                bad = TaskSpec(
                    arrival=spec.arrival + 1, task_id=10_000, task_type=7, deadline=10**6
                )
                with pytest.raises(ValueError, match="type 7"):
                    probed.inject_task(bad)
        probed_result, control_result = probed.finish_stream(), control.finish_stream()
        assert probed_result.summary() == control_result.summary()
        assert probed_result.outcomes == control_result.outcomes


class TestSystemModel:
    def test_queue_capacity_never_exceeded(self, small_gamma_pet, small_trace):
        config = SimulatorConfig(queue_capacity=2)
        sim = HCSimulator(small_gamma_pet, MinCompletionMinCompletion(), config=config, rng=1)
        result = sim.run(small_trace)
        # Post-hoc check: no machine ever holds more than `capacity` tasks at
        # once.  Reconstruct occupancy from execution intervals: at most one
        # executing task at a time per machine.
        for machine_index in range(small_gamma_pet.num_machines):
            intervals = [
                (t.exec_start, t.exec_end)
                for t in result.tasks
                if t.machine == machine_index and t.exec_start is not None
            ]
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1  # no preemption / multitasking

    def test_eviction_at_deadline_when_enabled(self, small_gamma_pet, small_trace):
        config = SimulatorConfig(evict_executing_at_deadline=True)
        result = simulate(
            small_gamma_pet, MinCompletionMinCompletion(), small_trace, config=config, rng=4
        )
        for task in result.tasks:
            if task.drop_reason is DropReason.DEADLINE_MISS_EXECUTING:
                assert task.exec_end == task.deadline
            if task.status is TaskStatus.COMPLETED:
                assert task.on_time  # late completions are impossible with eviction

    def test_late_completions_allowed_without_eviction(self, small_gamma_pet, small_trace):
        config = SimulatorConfig(evict_executing_at_deadline=False)
        result = simulate(
            small_gamma_pet, MinCompletionMinCompletion(), small_trace, config=config, rng=4
        )
        late = [t for t in result.tasks if t.status is TaskStatus.COMPLETED and not t.on_time]
        assert late, "an oversubscribed run without eviction should finish some tasks late"

    def test_eviction_reduces_wasted_busy_time(self, small_gamma_pet, small_trace):
        evict = simulate(
            small_gamma_pet,
            MinCompletionMinCompletion(),
            small_trace,
            config=SimulatorConfig(evict_executing_at_deadline=True),
            rng=5,
        )
        keep = simulate(
            small_gamma_pet,
            MinCompletionMinCompletion(),
            small_trace,
            config=SimulatorConfig(evict_executing_at_deadline=False),
            rng=5,
        )
        assert sum(evict.machine_busy_times) <= sum(keep.machine_busy_times)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimulatorConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            SimulatorConfig(max_impulses=0)

    def test_price_list_must_match_machines(self, small_gamma_pet):
        with pytest.raises(ValueError):
            HCSimulator(
                small_gamma_pet,
                MinCompletionMinCompletion(),
                machine_prices=[1.0],
            )


class TestWithPruningHeuristic:
    def test_pam_run_exercises_pruning_under_load(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, PruningAwareMapper(), small_trace, rng=6)
        assert all(t.is_terminal for t in result.tasks)
        # Under oversubscription the deferring stage must be active; the
        # dropping stage fires only when queued tasks degrade below the
        # dropping threshold, which this small trace may or may not trigger.
        assert result.counters.deferrals > 0
        assert result.counters.proactive_drops >= 0

    def test_pam_beats_minmin_on_oversubscribed_trace(self, small_gamma_pet, small_trace):
        mm = simulate(small_gamma_pet, MinCompletionMinCompletion(), small_trace, rng=9)
        pam = simulate(small_gamma_pet, PruningAwareMapper(), small_trace, rng=9)
        assert pam.robustness_percent() > mm.robustness_percent()

    def test_pruned_tasks_marked(self, small_gamma_pet, small_trace):
        result = simulate(small_gamma_pet, PruningAwareMapper(), small_trace, rng=6)
        pruned = [t for t in result.tasks if t.drop_reason is DropReason.PRUNED]
        assert len(pruned) == result.counters.proactive_drops


def trial_signature(result) -> tuple:
    return tuple(
        (t.task_id, t.status.value, t.machine, t.mapped_at, t.exec_start, t.exec_end, t.dropped_at)
        for t in result.tasks
    )


def reference_trial(config: SimulatorConfig | None = None):
    """PAMF on the seeded 660-task reference trace."""
    pet = build_transcoding_pet(rng=2019)
    heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
    return simulate(pet, heuristic, load_trace(REFERENCE_TRACE), config=config, rng=2021)


class TestKernels:
    """The engine scores through :mod:`repro.core.batch`; nothing selects other kernels."""

    @pytest.fixture(scope="class")
    def default_signature(self):
        return trial_signature(reference_trial())

    @pytest.mark.parametrize("kernel_backend", [None, "numpy"])
    def test_kernel_backend_field_changes_no_decision(self, kernel_backend, default_signature):
        result = reference_trial(SimulatorConfig(kernel_backend=kernel_backend))
        assert trial_signature(result) == default_signature

    def test_every_score_is_one_core_batch_call_and_one_span(
        self, small_gamma_pet, small_trace, monkeypatch
    ):
        calls = []
        kernel = heuristics_base.packed_success_probability

        def counting_kernel(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(heuristics_base, "packed_success_probability", counting_kernel)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            simulate(small_gamma_pet, PruningAwareMapper(), small_trace, rng=6)
        assert calls
        kernel_timings = {n: h.count for n, h in telemetry.timings.items() if n.startswith("kernel.")}
        assert kernel_timings == {"kernel.success_probability": len(calls)}
