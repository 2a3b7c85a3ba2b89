"""State-backed pruning walk: bit-identical (atol=0) to the re-convolving walk.

The pruner has two implementations of the head-first dropping walk:

* the self-contained path (``_prune_machine_queue_rebuilding``) re-convolves
  the completion-time chain from the queue head at every call — the
  pre-existing behaviour;
* the state-backed path consumes the engine's live ``SystemState`` chain
  prefix plus cached per-task ``(success probability, skewness)`` metadata
  and only re-convolves behind the first actual drop.

These tests pin exact equality between the two: identical drop decisions,
identical examined ``(task_id, prob, threshold)`` triples (float-exact), and
bit-identical post-drop availability PMFs — at the unit level on crafted
queues and at trial scale on seeded paper-style simulations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy
from repro.core.pmf import DiscretePMF
from repro.heuristics.pam import PruningAwareMapper
from repro.pruning.pruner import Pruner
from repro.pet.matrix import PETMatrix
from repro.pruning.thresholds import PruningThresholds
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.machine import Machine
from repro.simulator.mapping import MappingContext
from repro.simulator.state import SystemState
from repro.simulator.task import Task
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.spec import TaskSpec


def make_task(task_id: int, *, task_type: int = 0, deadline: int = 500, arrival: int = 0) -> Task:
    return Task(TaskSpec(arrival=arrival, task_id=task_id, task_type=task_type, deadline=deadline))


def pmf_equal(a: DiscretePMF, b: DiscretePMF) -> bool:
    a, b = a.compact(), b.compact()
    if a.is_zero() and b.is_zero():
        return True
    return a.offset == b.offset and np.array_equal(a.probs, b.probs)


def assert_reports_identical(got, want) -> None:
    """Exact (atol=0) equality of two queue-prune reports."""
    assert got.machine_index == want.machine_index
    assert got.drops == want.drops
    assert len(got.examined) == len(want.examined)
    for g, w in zip(got.examined, want.examined):
        assert g[0] == w[0]
        assert g[1] == w[1]  # success probability, bit-exact
        assert g[2] == w[2]  # threshold, bit-exact
    assert (got.availability is None) == (want.availability is None)
    if got.availability is not None:
        assert pmf_equal(got.availability, want.availability)


class CrossCheckingPruner(Pruner):
    """Runs the state-backed walk, then verifies it against the legacy walk."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.state_backed_calls = 0

    def _prune_machine_queue_state(self, machine, context):
        self.state_backed_calls += 1
        report = super()._prune_machine_queue_state(machine, context)
        reference = self._prune_machine_queue_rebuilding(machine, context)
        assert_reports_identical(report, reference)
        return report


def state_context(pet, machines, *, now=0, state=None):
    return MappingContext(
        now=now,
        batch=(),
        machines=tuple(machines),
        pet=pet,
        policy=DroppingPolicy.EVICT,
        state=state,
    )


class TestUnitEquivalence:
    def build(self, tiny_pet, tasks, *, start=None):
        machine = Machine(0, "fast-a", queue_capacity=6)
        state = SystemState([machine], tiny_pet)
        for task in tasks:
            machine.enqueue(task, now=0)
            state.notify_enqueue(0, task)
        if start is not None:
            machine.start_next(now=0, actual_execution_time=start)
            state.notify_start(0)
        return machine, state

    def check(self, tiny_pet, machine, state, *, now, pruner=None):
        pruner = pruner or Pruner(PruningThresholds(dropping=0.5, deferring=0.9))
        context = state_context(tiny_pet, [machine], now=now, state=state)
        got = pruner._prune_machine_queue_state(machine, context)
        want = pruner._prune_machine_queue_rebuilding(machine, context)
        assert_reports_identical(got, want)
        return got

    def test_healthy_queue_no_drops(self, tiny_pet):
        machine, state = self.build(
            tiny_pet, [make_task(1, deadline=300), make_task(2, deadline=400)]
        )
        report = self.check(tiny_pet, machine, state, now=0)
        assert report.drops == []

    def test_no_drop_prefix_is_served_from_chain(self, tiny_pet):
        machine, state = self.build(
            tiny_pet, [make_task(1, deadline=300), make_task(2, deadline=400)]
        )
        report = self.check(tiny_pet, machine, state, now=0)
        # The reported availability IS the live chain tail (no recompute).
        assert report.availability is state.chain(0, 0)[-1]

    def test_hopeless_mid_queue_task_dropped(self, tiny_pet):
        machine, state = self.build(
            tiny_pet,
            [
                make_task(1, task_type=0, deadline=400),
                make_task(2, task_type=2, deadline=8),  # cannot make it
                make_task(3, task_type=0, deadline=420),
            ],
        )
        report = self.check(tiny_pet, machine, state, now=1)
        assert {d.task_id for d in report.drops} == {2}

    def test_hopeless_head_drop_improves_tasks_behind(self, tiny_pet):
        machine, state = self.build(
            tiny_pet,
            [make_task(1, task_type=2, deadline=6), make_task(2, task_type=0, deadline=12)],
        )
        report = self.check(tiny_pet, machine, state, now=1)
        assert {d.task_id for d in report.drops} == {1}
        examined = {tid: prob for tid, prob, _ in report.examined}
        assert examined[2] > 0.5

    def test_executing_head_can_be_dropped(self, tiny_pet):
        machine, state = self.build(
            tiny_pet, [make_task(1, task_type=2, deadline=10)], start=14
        )
        report = self.check(tiny_pet, machine, state, now=2)
        assert {d.task_id for d in report.drops} == {1}

    def test_executing_head_kept_with_queue_behind(self, tiny_pet):
        machine, state = self.build(
            tiny_pet,
            [
                make_task(1, task_type=0, deadline=300),
                make_task(2, task_type=1, deadline=350),
                make_task(3, task_type=0, deadline=9),  # dropped mid-queue
                make_task(4, task_type=0, deadline=400),
            ],
            start=5,
        )
        report = self.check(tiny_pet, machine, state, now=2)
        assert {d.task_id for d in report.drops} == {3}

    def test_fairness_sufferage_applies_identically(self, tiny_pet):
        from repro.pruning.fairness import SufferageTracker

        fairness = SufferageTracker(tiny_pet.num_task_types, fairness_factor=0.3)
        fairness.record_failure(1)
        machine, state = self.build(tiny_pet, [make_task(1, task_type=1, deadline=9)])
        pruner = Pruner(
            PruningThresholds(dropping=0.6, deferring=0.9, dynamic_per_task=False),
            fairness=fairness,
        )
        report = self.check(tiny_pet, machine, state, now=0, pruner=pruner)
        assert report.drops == []

    def test_meta_cache_reused_across_events(self, tiny_pet):
        """A queue untouched between events answers without re-deriving."""
        machine, state = self.build(
            tiny_pet, [make_task(1, deadline=300), make_task(2, deadline=400)]
        )
        first = state.prune_prefix_meta(0, 0)
        second = state.prune_prefix_meta(0, 0)
        assert first == second
        # A tail enqueue extends the metadata without touching the prefix.
        extra = make_task(3, deadline=500)
        machine.enqueue(extra, now=0)
        state.notify_enqueue(0, extra)
        third = state.prune_prefix_meta(0, 0)
        assert third[:2] == first
        assert len(third) == 3

    @pytest.mark.parametrize(
        "mismatch",
        [
            {"max_impulses": 16},  # the state's is 32
            {"policy": DroppingPolicy.PENDING},
            {"machines": (Machine(0, "fast-a", queue_capacity=6),)},
            "pet",
        ],
    )
    def test_mismatched_state_raises(self, tiny_pet, mismatch):
        machine, state = self.build(tiny_pet, [make_task(1, deadline=300)])
        settings = dict(
            now=0,
            batch=(),
            machines=(machine,),
            pet=tiny_pet,
            policy=DroppingPolicy.EVICT,
        )
        MappingContext(state=state, **settings)  # matching settings are fine
        if mismatch == "pet":  # an equal PET that is not the state's object
            mismatch = {"pet": PETMatrix(tiny_pet.task_types, tiny_pet.machine_names, tiny_pet.pmfs)}
        with pytest.raises(ValueError, match="disagree"):
            MappingContext(state=state, **{**settings, **mismatch})


class TestTrialScaleEquivalence:
    @pytest.mark.parametrize("always_drop", [False, True])
    def test_seeded_trial_walks_agree_everywhere(
        self, small_gamma_pet, always_drop
    ) -> None:
        """Every dropping-stage call in a seeded oversubscribed trial agrees."""
        pruner = CrossCheckingPruner(
            PruningThresholds(dropping=0.5, deferring=0.9), always_drop=always_drop
        )
        heuristic = PruningAwareMapper(pruner=pruner)
        workload = WorkloadConfig(num_tasks=140, time_span=500, beta=1.5)
        trace = generate_workload(workload, small_gamma_pet, rng=17)
        simulate(small_gamma_pet, heuristic, trace, rng=18)
        assert pruner.state_backed_calls > 0

    def test_seeded_trial_metrics_identical_to_forced_legacy(
        self, small_gamma_pet
    ) -> None:
        """End to end, the state-backed walk changes no simulated number."""

        class LegacyOnlyPruner(Pruner):
            def prune_machine_queue(self, machine, context):
                return self._prune_machine_queue_rebuilding(machine, context)

        workload = WorkloadConfig(num_tasks=140, time_span=500, beta=1.5)
        trace = generate_workload(workload, small_gamma_pet, rng=23)

        def run(pruner_cls):
            heuristic = PruningAwareMapper(
                pruner=pruner_cls(PruningThresholds(dropping=0.5, deferring=0.9))
            )
            result = simulate(
                small_gamma_pet,
                heuristic,
                trace,
                config=SimulatorConfig(),
                rng=29,
            )
            return (
                result.robustness_percent(warmup=10, cooldown=10),
                result.fairness_variance(warmup=10, cooldown=10),
                result.total_cost(),
                tuple(sorted(result.status_counts().items())),
            )

        assert run(Pruner) == run(LegacyOnlyPruner)
