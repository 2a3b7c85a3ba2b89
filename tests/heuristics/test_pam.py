"""Tests for the Pruning Aware Mapper (PAM)."""

from __future__ import annotations

from repro.core.completion import DroppingPolicy
from repro.heuristics.pam import PruningAwareMapper
from repro.pruning.oversubscription import OversubscriptionDetector
from repro.pruning.thresholds import PruningThresholds
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def make_context(tiny_pet, machines, batch, *, now=0, misses=0):
    return MappingContext(
        now=now,
        batch=tuple(batch),
        machines=tuple(machines),
        pet=tiny_pet,
        policy=DroppingPolicy.EVICT,
        misses_since_last_event=misses,
    )


class TestDeferring:
    def test_low_robustness_task_deferred(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        # gamma takes >=12 units everywhere; deadline 14 gives < 90% robustness.
        marginal = make_task(1, task_type=2, deadline=14)
        strong = make_task(2, task_type=0, deadline=200)
        context = make_context(tiny_pet, machines, [marginal, strong])
        pam = PruningAwareMapper(PruningThresholds(dropping=0.5, deferring=0.9))
        decision = pam.map_tasks(context)
        assigned = {a.task_id for a in decision.assignments}
        assert 2 in assigned
        assert 1 not in assigned
        assert 1 in decision.deferrals

    def test_deferred_task_mapped_when_threshold_lowered(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=6), Machine(1, "fast-b", queue_capacity=6)]
        marginal = make_task(1, task_type=2, deadline=14)
        context = make_context(tiny_pet, machines, [marginal])
        lenient = PruningAwareMapper(PruningThresholds(dropping=0.1, deferring=0.2))
        decision = lenient.map_tasks(context)
        assert {a.task_id for a in decision.assignments} == {1}

    def test_deferring_can_be_disabled(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=6)]
        marginal = make_task(1, task_type=2, deadline=14)
        context = make_context(tiny_pet, machines, [marginal])
        pam = PruningAwareMapper(enable_deferring=False)
        decision = pam.map_tasks(context)
        assert {a.task_id for a in decision.assignments} == {1}

    def test_phase2_prefers_lowest_completion_among_robust_pairs(self, tiny_pet):
        machines = [Machine(0, "fast-a", queue_capacity=1), Machine(1, "fast-b", queue_capacity=1)]
        alpha = make_task(1, task_type=0, deadline=300)  # quick on fast-a
        gamma = make_task(2, task_type=2, deadline=300)  # long everywhere
        context = make_context(tiny_pet, machines, [alpha, gamma])
        pam = PruningAwareMapper()
        decision = pam.map_tasks(context)
        # Both are robust with a 300 deadline; the alpha task has the lower
        # expected completion time so it is committed first (to fast-a).
        assert decision.assignments[0].task_id == 1
        assert decision.assignments[0].machine_index == 0


class TestDropping:
    def test_queue_drops_happen_only_when_oversubscribed(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        doomed = make_task(10, task_type=2, deadline=6)
        machine.enqueue(doomed, now=0)
        pam = PruningAwareMapper(
            detector=OversubscriptionDetector(ewma_weight=0.9, toggle_level=1.0)
        )
        quiet = make_context(tiny_pet, [machine], [], now=1, misses=0)
        assert pam.map_tasks(quiet).queue_drops == []
        stressed = make_context(tiny_pet, [machine], [], now=1, misses=5)
        drops = pam.map_tasks(stressed).queue_drops
        assert {d.task_id for d in drops} == {10}

    def test_dropping_can_be_disabled(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=6)
        machine.enqueue(make_task(10, task_type=2, deadline=6), now=0)
        pam = PruningAwareMapper(enable_dropping=False)
        stressed = make_context(tiny_pet, [machine], [], now=1, misses=5)
        assert pam.map_tasks(stressed).queue_drops == []

    def test_freed_slot_is_reused_within_same_event(self, tiny_pet):
        machine = Machine(0, "fast-a", queue_capacity=1)
        machine.enqueue(make_task(10, task_type=2, deadline=6), now=0)
        fresh = make_task(1, task_type=0, deadline=200)
        pam = PruningAwareMapper()
        context = make_context(tiny_pet, [machine], [fresh], now=1, misses=5)
        decision = pam.map_tasks(context)
        assert {d.task_id for d in decision.queue_drops} == {10}
        assert {a.task_id for a in decision.assignments} == {1}
        decision.validate(context)


class TestStateManagement:
    def test_reset_clears_detector(self, tiny_pet):
        pam = PruningAwareMapper()
        machine = Machine(0, "fast-a", queue_capacity=6)
        context = make_context(tiny_pet, [machine], [], misses=10)
        pam.map_tasks(context)
        assert pam._dropping_engaged
        pam.reset()
        assert not pam._dropping_engaged
        # An EWMA of 0.9 lies inside the hysteresis band (0.8, 1.0): an
        # engaged toggle would stay on.
        assert not pam.pruner.detector.observe(1)

    def test_thresholds_property(self):
        thresholds = PruningThresholds(dropping=0.4, deferring=0.8)
        pam = PruningAwareMapper(thresholds)
        assert pam.thresholds is thresholds

    def test_name(self):
        assert PruningAwareMapper().name == "PAM"
