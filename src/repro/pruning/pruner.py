"""The pruning mechanism: probabilistic task dropping and deferring (Section V).

At every mapping event the pruner

1. folds the deadline misses observed since the previous event into the
   oversubscription detector (Eq. 8 + Schmitt trigger) and, for the fair
   variant, folds terminal events into the sufferage tracker;
2. when dropping is engaged, walks every machine queue from the head
   (executing task first), computes each task's success probability given
   the tasks *kept* ahead of it, and drops those at or below their
   (dynamically adjusted, fairness-relaxed) dropping threshold;
3. exposes the deferring test used by the mapping phase: a batch task whose
   best achievable robustness fails the deferring threshold is kept in the
   batch queue for a later, hopefully better, mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.completion import DroppingPolicy, completion_step
from ..core.pmf import DiscretePMF
from ..simulator.machine import Machine
from ..simulator.mapping import MappingContext, QueueDrop
from .fairness import SufferageTracker
from .oversubscription import OversubscriptionDetector
from .thresholds import PruningThresholds

__all__ = ["Pruner", "QueuePruneReport"]


@dataclass
class QueuePruneReport:
    """What the dropping stage decided for one machine queue."""

    machine_index: int
    drops: list[QueueDrop] = field(default_factory=list)
    #: (task_id, success_probability, threshold) for every examined task;
    #: the threshold is ``None`` for a task kept because its probability
    #: exceeds every threshold Eq. 7 could give it
    #: (:meth:`PruningThresholds.dropping_threshold_ceiling`), whose
    #: skewness was therefore never computed.
    examined: list[tuple[int, float, float | None]] = field(default_factory=list)
    #: Availability PMF of the machine after removing the dropped tasks.
    availability: DiscretePMF | None = None


class Pruner:
    """Probabilistic task pruning used by PAM and PAMF."""

    def __init__(
        self,
        thresholds: PruningThresholds | None = None,
        *,
        detector: OversubscriptionDetector | None = None,
        fairness: SufferageTracker | None = None,
        always_drop: bool = False,
    ) -> None:
        self.thresholds = thresholds or PruningThresholds()
        self.detector = detector or OversubscriptionDetector()
        self.fairness = fairness
        #: When True, dropping is engaged at every mapping event regardless of
        #: the detector (used by ablation experiments).
        self.always_drop = bool(always_drop)
        #: Per-type deferring thresholds, and the (sufferage version,
        #: thresholds) they were computed for.
        self._deferring: np.ndarray | None = None
        self._deferring_key: tuple[int, PruningThresholds] | None = None

    # ------------------------------------------------------------------
    # Per-mapping-event bookkeeping
    # ------------------------------------------------------------------
    def observe_mapping_event(self, context: MappingContext) -> bool:
        """Update detector/fairness state; return whether dropping is engaged."""
        if self.fairness is not None:
            self.fairness.observe_terminal_events(context.terminal_events)
        engaged = self.detector.observe(context.misses_since_last_event)
        return engaged or self.always_drop

    def reset(self) -> None:
        self.detector.reset()
        if self.fairness is not None:
            self.fairness.reset()

    # ------------------------------------------------------------------
    # Threshold helpers
    # ------------------------------------------------------------------
    def _sufferage_of(self, task_type: int) -> float:
        if self.fairness is None:
            return 0.0
        return self.fairness.sufferage_of(task_type)

    def deferring_threshold(self, task_type: int) -> float:
        """Deferring threshold for a task type (fairness-relaxed for PAMF)."""
        return self.thresholds.deferring_threshold_for(
            sufferage=self._sufferage_of(task_type)
        )

    def should_defer(self, best_robustness: float, task_type: int) -> bool:
        """True when a batch task should not be mapped at this event."""
        return self.thresholds.should_defer(
            best_robustness, self.deferring_threshold(task_type)
        )

    def defer_mask(self, best_robustness: np.ndarray, task_types: np.ndarray) -> np.ndarray:
        """:meth:`should_defer` of many batch tasks at once, op for op (the mapper's form)."""
        if self.fairness is None:
            return best_robustness < self.thresholds.deferring_threshold_for()
        key = self._deferring_key
        if key is None or key[0] != self.fairness.version or key[1] is not self.thresholds:
            relaxed = self.thresholds.deferring - np.maximum(0.0, self.fairness.values)
            self._deferring = np.minimum(1.0, np.maximum(0.0, relaxed))
            self._deferring_key = (self.fairness.version, self.thresholds)
        return best_robustness < self._deferring[task_types]

    # ------------------------------------------------------------------
    # Dropping stage
    # ------------------------------------------------------------------
    def _examine(
        self,
        report: QueuePruneReport,
        task,
        queue_position: int,
        probability: float,
        completion: DiscretePMF,
    ) -> bool:
        """The dropping test of one queued task, recorded in ``report``; True to drop.

        Eq. 7's skewness is computed only for a task whose probability does
        not clear the highest threshold any skewness could give it.
        """
        thresholds = self.thresholds
        sufferage = self._sufferage_of(task.task_type)
        threshold = None
        if probability <= thresholds.dropping_threshold_ceiling(
            queue_position, sufferage=sufferage
        ):
            threshold = thresholds.dropping_threshold_for(
                completion, queue_position, sufferage=sufferage
            )
        report.examined.append((task.task_id, probability, threshold))
        if threshold is None or not thresholds.should_drop(probability, threshold):
            return False
        report.drops.append(QueueDrop(task.task_id, report.machine_index))
        return True

    def prune_machine_queue(
        self, machine: Machine, context: MappingContext
    ) -> QueuePruneReport:
        """Walk one machine queue head-first and select tasks to drop.

        The completion-time chain is rebuilt as the walk proceeds so that a
        drop immediately improves the success probability of the tasks behind
        the dropped one (Section IV) — exactly the cascading benefit the
        paper's model quantifies.

        Under EVICT the walk consumes the context's live
        :class:`~repro.simulator.state.SystemState` chain prefix and
        per-task pruning metadata instead of re-convolving from the queue
        head: an unchanged queue is examined without any convolution, and
        only the suffix *behind the first actual drop* is re-convolved.
        Under the other policies the walk re-convolves from the head
        (:meth:`_prune_machine_queue_rebuilding`): it anchors a kept
        executing head with the EVICT tail collapse, which the state's
        non-EVICT chains do not.  Both walks are bit-identical under EVICT
        (``tests/pruning/test_state_backed_walk.py`` pins atol=0 equality).

        Both follow the state's anchoring rule: a task stepped from a free
        machine's ``point(now)`` — an idle machine's pending head, or the
        first kept task behind a dropped head — with ``deadline > now`` is
        stepped without the impulse cap, because it starts at ``now`` and is
        then anchored on its exact completion PMF.
        """
        if context.policy is DroppingPolicy.EVICT:
            return self._prune_machine_queue_state(machine, context)
        return self._prune_machine_queue_rebuilding(machine, context)

    def _prune_machine_queue_state(
        self, machine: Machine, context: MappingContext
    ) -> QueuePruneReport:
        """State-backed walk: cached prefix, re-convolve past the first drop."""
        report = QueuePruneReport(machine_index=machine.index)
        tasks = machine.queued_tasks()
        if not tasks:
            report.availability = DiscretePMF.point(context.now)
            return report
        state = context.state
        entries = state.prune_prefix_meta(machine.index, context.now)
        for position, (task, (prob, completion, _)) in enumerate(zip(tasks, entries)):
            if self._examine(report, task, position, prob, completion):
                break
        else:
            report.availability = entries[-1][2]
            return report

        # A task was dropped: everything behind it sees an improved chain,
        # so from here the walk re-convolves exactly like the
        # self-contained path.  The availability ahead of the suffix is the
        # untouched chain prefix (or an immediately free machine when the
        # head — executing or not — was dropped).
        prev = None if position == 0 else entries[position - 1][2]
        self._walk_suffix(
            report,
            machine,
            context,
            tasks,
            start_position=position + 1,
            prev=prev,
            offer=state.offer_step,
        )
        return report

    def _walk_suffix(
        self,
        report: QueuePruneReport,
        machine: Machine,
        context: MappingContext,
        tasks: list,
        *,
        start_position: int,
        prev: DiscretePMF | None,
        offer=None,
    ) -> None:
        """The head-first dropping walk over ``tasks[start_position:]``.

        ``prev`` is the availability PMF of the kept tasks ahead, ``None``
        for a machine free at ``context.now``; the chain is advanced one
        :func:`completion_step` per task (which also yields its success
        probability and the completion PMF Eq. 7 reads) with dropped tasks
        skipped — shared by the self-contained walk and the post-first-drop
        suffix of the state-backed walk.  A step from the free machine's
        ``point(now)`` of a task with ``deadline > now`` is uncapped, as the
        live state takes it: that task heads the queue and starts at ``now``
        on its exact completion PMF.  The state-backed walk passes the live
        state's ``offer_step``: once the engine applies the drops, the state
        adopts the kept tasks' steps instead of recomputing them.
        """
        base = DiscretePMF.point(context.now)
        if prev is None:
            prev = base
        for position, task in enumerate(tasks[start_position:], start=start_position):
            step = completion_step(
                context.pet.get(task.task_type, machine.index),
                prev,
                task.deadline,
                context.policy,
                None if prev is base and task.deadline > context.now else context.max_impulses,
            )
            if self._examine(report, task, position, step.success_probability, step.completion):
                continue  # the chain skips the dropped task
            if offer is not None:
                offer(machine.index, task, prev, step)
            prev = step.availability
        report.availability = prev

    def _prune_machine_queue_rebuilding(
        self, machine: Machine, context: MappingContext
    ) -> QueuePruneReport:
        """Self-contained walk re-convolving the chain from the queue head."""
        report = QueuePruneReport(machine_index=machine.index)
        tasks = machine.queued_tasks()
        if not tasks:
            report.availability = DiscretePMF.point(context.now)
            return report

        # Availability ahead of the first pending task (``None``: free now).
        prev = None
        start_position = 0
        if machine.executing is not None:
            executing = machine.executing
            raw = machine.executing_completion_pmf(context.pet, context.now)
            # The executing task can itself be dropped (Section V-A starts the
            # walk at the queue head).  Its success probability is the chance
            # it finishes by its deadline given it is still running.
            prob = float(min(1.0, raw.cdf(executing.deadline)))
            if not self._examine(report, executing, 0, prob, raw):
                prev = raw.collapse_tail_to(max(executing.deadline, context.now + 1))
            start_position = 1

        self._walk_suffix(
            report,
            machine,
            context,
            tasks,
            start_position=start_position,
            prev=prev,
        )
        return report

    def select_queue_drops(
        self, context: MappingContext
    ) -> tuple[list[QueueDrop], dict[int, DiscretePMF]]:
        """Dropping stage over all machine queues.

        Returns the drops plus each machine's availability PMF after the
        drops, so the mapping phase can reuse the recomputed chains instead
        of redoing the convolutions.
        """
        drops: list[QueueDrop] = []
        availability: dict[int, DiscretePMF] = {}
        for machine in context.machines:
            report = self.prune_machine_queue(machine, context)
            drops.extend(report.drops)
            if report.availability is not None:
                availability[machine.index] = report.availability
        return drops, availability
