"""Tests for the pruning mechanism (dropping + deferring orchestration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy
from repro.pruning.fairness import SufferageTracker
from repro.pruning.oversubscription import OversubscriptionDetector
from repro.pruning.pruner import Pruner
from repro.pruning.thresholds import PruningThresholds
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext, TerminalEvent
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def make_context(tiny_pet, machines, *, now=0, misses=0, terminal=(), batch=()):
    return MappingContext(
        now=now,
        batch=tuple(batch),
        machines=tuple(machines),
        pet=tiny_pet,
        policy=DroppingPolicy.EVICT,
        misses_since_last_event=misses,
        terminal_events=tuple(terminal),
    )


class TestObserveMappingEvent:
    def test_dropping_engages_on_misses(self, tiny_pet):
        pruner = Pruner(PruningThresholds(), detector=OversubscriptionDetector())
        context = make_context(tiny_pet, [Machine(0, "fast-a")], misses=3)
        assert pruner.observe_mapping_event(context)

    def test_dropping_not_engaged_without_misses(self, tiny_pet):
        pruner = Pruner(PruningThresholds(), detector=OversubscriptionDetector())
        context = make_context(tiny_pet, [Machine(0, "fast-a")], misses=0)
        assert not pruner.observe_mapping_event(context)

    def test_always_drop_override(self, tiny_pet):
        pruner = Pruner(always_drop=True)
        context = make_context(tiny_pet, [Machine(0, "fast-a")], misses=0)
        assert pruner.observe_mapping_event(context)

    def test_fairness_updated_from_terminal_events(self, tiny_pet):
        fairness = SufferageTracker(tiny_pet.num_task_types, fairness_factor=0.1)
        pruner = Pruner(fairness=fairness)
        events = [TerminalEvent(1, task_type=2, on_time=False)]
        context = make_context(tiny_pet, [Machine(0, "fast-a")], terminal=events)
        pruner.observe_mapping_event(context)
        assert fairness.sufferage_of(2) == pytest.approx(0.1)

    def test_reset_clears_state(self, tiny_pet):
        fairness = SufferageTracker(tiny_pet.num_task_types, fairness_factor=0.1)
        pruner = Pruner(fairness=fairness)
        context = make_context(
            tiny_pet,
            [Machine(0, "fast-a")],
            misses=5,
            terminal=[TerminalEvent(1, task_type=0, on_time=False)],
        )
        pruner.observe_mapping_event(context)
        pruner.reset()
        # An EWMA of 0.9 lies inside the hysteresis band (0.8, 1.0): an
        # engaged toggle would stay on.
        assert not pruner.detector.observe(1)
        assert fairness.sufferage_of(0) == 0.0


class TestDeferring:
    def test_defer_below_threshold(self):
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        assert pruner.should_defer(0.89, task_type=0)
        assert not pruner.should_defer(0.95, task_type=0)

    def test_fairness_relaxes_deferring_threshold(self, tiny_pet):
        fairness = SufferageTracker(tiny_pet.num_task_types, fairness_factor=0.3)
        fairness.record_failure(1)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9), fairness=fairness)
        # Type 1 suffered: threshold drops to 0.6, so 0.7 is now acceptable.
        assert pruner.should_defer(0.7, task_type=0)
        assert not pruner.should_defer(0.7, task_type=1)

    def test_the_mask_follows_every_sufferage_change(self, tiny_pet):
        """Two changes with no mapping event between them: the mask sees both."""
        fairness = SufferageTracker(tiny_pet.num_task_types, fairness_factor=0.3)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9), fairness=fairness)
        robustness, types = np.array([0.7, 0.7, 0.5]), np.array([0, 1, 1])
        assert pruner.defer_mask(robustness, types).tolist() == [True, True, True]
        fairness.record_failure(1)  # type 1: 0.9 -> 0.6
        assert pruner.defer_mask(robustness, types).tolist() == [True, False, True]
        fairness.record_failure(1)  # type 1: 0.6 -> 0.3
        assert pruner.defer_mask(robustness, types).tolist() == [True, False, False]
        fairness.reset()
        assert pruner.defer_mask(robustness, types).tolist() == [True, True, True]

    @pytest.mark.parametrize("fair", [False, True])
    def test_the_mask_is_the_scalar_test_elementwise(self, fair):
        """``defer_mask`` (what the mapper calls) == ``should_defer`` per task."""
        rng = np.random.default_rng(4)
        fairness = SufferageTracker(6, fairness_factor=0.07) if fair else None
        pruner = Pruner(PruningThresholds(dropping=0.3, deferring=0.8), fairness=fairness)
        for _ in range(30):
            if fair:
                for task_type in rng.integers(0, 6, size=5).tolist():
                    (fairness.record_failure if rng.random() < 0.7 else fairness.record_success)(
                        task_type
                    )
            types = rng.integers(0, 6, size=40)
            # Values around every reachable threshold, and thresholds themselves.
            robustness = np.round(rng.random(40), 2)
            robustness[:6] = [pruner.deferring_threshold(t) for t in range(6)]
            mask = pruner.defer_mask(robustness, types)
            assert mask.dtype == bool
            assert mask.tolist() == [
                pruner.should_defer(float(r), int(t)) for r, t in zip(robustness, types)
            ]


class TestQueueDropping:
    def test_hopeless_queued_task_is_dropped(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        # Task of type "gamma" (execution 12-16 on fast-a) with an impossible
        # deadline: success probability 0, must be dropped.
        hopeless = make_task(1, task_type=2, deadline=6)
        fine = make_task(2, task_type=0, deadline=400)
        machine.enqueue(hopeless, now=0)
        machine.enqueue(fine, now=0)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        context = make_context(tiny_pet, [machine], now=1)
        report = pruner.prune_machine_queue(machine, context)
        dropped_ids = {d.task_id for d in report.drops}
        assert 1 in dropped_ids
        assert 2 not in dropped_ids

    def test_dropping_head_improves_chain_for_tasks_behind(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        hopeless = make_task(1, task_type=2, deadline=6)   # long task, dead on arrival
        behind = make_task(2, task_type=0, deadline=12)    # needs the machine soon
        machine.enqueue(hopeless, now=0)
        machine.enqueue(behind, now=0)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        context = make_context(tiny_pet, [machine], now=1)
        report = pruner.prune_machine_queue(machine, context)
        # The hopeless head is dropped, and the task behind it is evaluated
        # against the *post-drop* chain, so it survives.
        assert {d.task_id for d in report.drops} == {1}
        examined = dict((tid, prob) for tid, prob, _ in report.examined)
        assert examined[2] > 0.5

    def test_healthy_queue_is_untouched(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        machine.enqueue(make_task(1, task_type=0, deadline=300), now=0)
        machine.enqueue(make_task(2, task_type=0, deadline=400), now=0)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        context = make_context(tiny_pet, [machine], now=0)
        report = pruner.prune_machine_queue(machine, context)
        assert report.drops == []
        assert report.availability is not None
        assert report.availability.total_mass() == pytest.approx(1.0)

    def test_executing_task_can_be_dropped(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        doomed = make_task(1, task_type=2, deadline=10)  # executes 12-16 time units
        machine.enqueue(doomed, now=0)
        machine.start_next(now=0, actual_execution_time=14)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        context = make_context(tiny_pet, [machine], now=2)
        report = pruner.prune_machine_queue(machine, context)
        assert {d.task_id for d in report.drops} == {1}

    def test_empty_queue_report(self, tiny_pet):
        machine = Machine(0, "fast-a")
        pruner = Pruner()
        context = make_context(tiny_pet, [machine], now=5)
        report = pruner.prune_machine_queue(machine, context)
        assert report.drops == []
        assert report.availability.probability_at(5) == pytest.approx(1.0)

    def test_select_queue_drops_covers_all_machines(self, tiny_pet):
        m0 = Machine(0, "fast-a", queue_capacity=6)
        m1 = Machine(1, "fast-b", queue_capacity=6)
        m0.enqueue(make_task(1, task_type=2, deadline=6), now=0)
        m1.enqueue(make_task(2, task_type=2, deadline=6), now=0)
        pruner = Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        context = make_context(tiny_pet, [m0, m1], now=1)
        drops, availability = pruner.select_queue_drops(context)
        assert {d.task_id for d in drops} == {1, 2}
        assert set(availability) == {0, 1}

    def test_fairness_protects_suffering_type_from_dropping(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        # Borderline task: type beta on fast-a takes 9-11; deadline gives ~50%.
        borderline = make_task(1, task_type=1, deadline=9)
        machine.enqueue(borderline, now=0)
        context = make_context(tiny_pet, [machine], now=0)

        strict = Pruner(PruningThresholds(dropping=0.6, deferring=0.9, dynamic_per_task=False))
        assert {d.task_id for d in strict.prune_machine_queue(machine, context).drops} == {1}

        fairness = SufferageTracker(tiny_pet.num_task_types, fairness_factor=0.3)
        fairness.record_failure(1)
        fairness.record_failure(1)
        lenient = Pruner(
            PruningThresholds(dropping=0.6, deferring=0.9, dynamic_per_task=False),
            fairness=fairness,
        )
        assert lenient.prune_machine_queue(machine, context).drops == []
