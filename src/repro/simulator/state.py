"""Persistent incremental availability state of the whole system.

:class:`SystemState` is the one walker of the completion-time chain down
each machine queue (Section IV, Eqs. 2-5) in ``src/``; the engine, the
mapping context and the pruner all read availability through it.  The
chains live for the whole simulation:

* every machine's completion-time chain (``chain[k]`` = availability after
  the ``k``-th queued task) is kept alive across mapping events,
* queue mutations are *notifications* (:meth:`notify_enqueue`,
  :meth:`notify_start`, :meth:`notify_finish`, :meth:`notify_remove`) that
  invalidate only the dirty *suffix* of the affected machine's chain — an
  enqueue costs at most one convolution step, a drop at position ``p``
  costs ``len(queue) - p`` steps, and untouched machines cost nothing,
* the dirty suffix is recomputed lazily by ``_advance``, on the first query
  that reads the machine (:meth:`availability`, :meth:`chain`, ...) — a
  machine nobody reads between two mutations is never advanced in between,
* a chain step the mapper already computed while building its virtual queue
  can be handed over (:meth:`offer_step`) and is adopted instead of being
  recomputed when the task lands behind that very predecessor PMF,
* all machines' availability PMFs can be served as one live, padded
  ``(n_machines, support)`` :class:`~repro.core.batch.PMFBatch`
  (:meth:`availability_batch`); only the perf ledger under ``bench/``
  reads it.

Every step is :func:`~repro.core.completion.completion_step` and every
executing head is anchored on its exact completion PMF
(:meth:`~repro.simulator.machine.Machine.executing_anchor_pmf`), so a chain
maintained across any sequence of mutations is bit-identical (``atol=0``)
to one walked from scratch down the current queue with
:func:`~repro.core.completion.queue_completion_pmfs` — the reference the
test suite compares against at every mapping event of seeded full trials.

Time anchoring
--------------
With the paper's default anchoring (the executing task's completion PMF is
pinned at its observed start time) a non-empty machine's chain does not
depend on the current time, so it survives across mapping events untouched.
A chain whose base is the current time — an idle machine's ``point(now)`` —
is transparently re-anchored when queried at a different ``now``; a chain
whose head is executing never depends on ``now``.

An idle machine's pending head starts at ``now`` (the engine starts heads
right after the mapping event), so its step from ``point(now)`` is taken
without the impulse cap: for a head with ``deadline > now`` that step's
availability has the values of the executing anchor the task gets when it
starts at that instant.  :meth:`SystemState.notify_start` therefore keeps a
chain walked at the very start instant — no step is recomputed, only the
head's pruning inputs switch to its raw completion PMF.  A start at a later
instant or a head whose deadline has passed re-walks the chain from the
anchor.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Iterable, Sequence

from ..core.batch import PMFBatch
from ..core.completion import ChainStep, DroppingPolicy, completion_step
from ..core.pmf import DiscretePMF
from ..obs.telemetry import active as obs_active
from ..pet.matrix import PETMatrix
from .machine import Machine
from .task import Task

__all__ = ["SystemState"]


class _MachineChain:
    """Mutable per-machine record: task mirror, chain cache, dirty suffix."""

    __slots__ = (
        "tasks",
        "chain",
        "steps",
        "meta",
        "offers",
        "dirty_from",
        "head_executing",
        "anchor_now",
        "version",
    )

    def __init__(self) -> None:
        #: Mirror of ``machine.queued_tasks()`` (executing task first).
        self.tasks: list[Task] = []
        #: ``chain[k]`` is the availability PMF after ``tasks[k]``; entries
        #: past ``dirty_from`` are stale and recomputed lazily.
        self.chain: list[DiscretePMF] = []
        #: Parallel to ``chain``: the step that produced ``chain[k]`` with
        #: its by-products (``None`` for an executing head's anchor).
        self.steps: list[ChainStep | None] = []
        #: Lazily filled pruning sidecar, parallel to ``chain``:
        #: ``meta[k]`` is ``(success_probability, completion, chain[k])`` of
        #: ``tasks[k]`` given the tasks ahead of it — the per-task inputs of
        #: the pruner's no-drop dropping test, read off ``steps[k]``.
        #: Truncated wherever the chain is, so entries are never stale; may
        #: be shorter than ``chain`` until the pruning path asks for it.
        self.meta: list[tuple[float, DiscretePMF, DiscretePMF]] = []
        #: Chain steps handed over by the mapper or the pruner, ``(task,
        #: prev, step)`` with each entry's ``prev`` the previous entry's
        #: ``step.availability``.
        self.offers: list[tuple[Task, DiscretePMF, ChainStep]] = []
        #: First chain index that needs recomputation (``len(tasks)`` = clean).
        self.dirty_from: int = 0
        #: Whether ``chain[0]`` was computed with ``tasks[0]`` executing.
        self.head_executing: bool = False
        #: The ``now`` the chain base was anchored at (only meaningful when
        #: the base is time-dependent: an idle head's ``point(now)``).
        self.anchor_now: int | None = None
        #: ``machine.queue_version`` at the last (re)sync — the defensive
        #: change detector for mutations that arrived without a notification.
        self.version: int = 0


class SystemState:
    """Live, incrementally-updated availability engine for all machines.

    Parameters
    ----------
    machines:
        The simulator's machines; the state observes them but never mutates
        their queues.
    pet:
        PET matrix used to extend completion-time chains.
    policy:
        Dropping regime of the running system (Section IV); fixed for the
        lifetime of the state, like the simulator config it derives from.
    max_impulses:
        Impulse-aggregation cap applied after every chain step.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        pet: PETMatrix,
        *,
        policy: DroppingPolicy = DroppingPolicy.EVICT,
        max_impulses: int | None = 32,
    ) -> None:
        self.machines = list(machines)
        self.pet = pet
        self.policy = policy
        self.max_impulses = max_impulses
        self._records = [_MachineChain() for _ in self.machines]
        self._version = 0
        self._batch_cache: tuple[tuple[int, int], PMFBatch] | None = None
        #: Telemetry registry of the run that built this state (the engine
        #: builds one state per stream); only read when enabled.
        self._obs = obs_active()
        for machine, rec in zip(self.machines, self._records):
            self._resync_from_machine(rec, machine)

    # ------------------------------------------------------------------
    # Notifications (called by the engine next to each queue mutation)
    # ------------------------------------------------------------------
    def notify_enqueue(self, machine_index: int, task: Task) -> None:
        """A task was appended to the machine's local queue (tail extend)."""
        machine = self.machines[machine_index]
        rec = self._records[machine_index]
        if rec.version == machine.queue_version - 1:
            rec.tasks.append(task)
            rec.version = machine.queue_version
        else:
            self._resync_from_machine(rec, machine)
        self._touch()

    def notify_start(self, machine_index: int) -> None:
        """The head task began executing (anchoring changed, membership not).

        A chain walked at this very start instant already stands on the
        head's anchor (see *Time anchoring* above) and is kept; otherwise
        it is re-walked from the anchor on the next query.
        """
        machine = self.machines[machine_index]
        rec = self._records[machine_index]
        if rec.version == machine.queue_version - 1:
            head = machine.executing
            if (
                rec.dirty_from > 0
                and not rec.head_executing
                and rec.anchor_now == head.exec_start < head.deadline
            ):
                # An executing head's pruning inputs are its raw PMF.
                rec.steps[0] = None
                del rec.meta[:]
                rec.head_executing = True
            else:
                rec.dirty_from = 0
            rec.version = machine.queue_version
        else:
            self._resync_from_machine(rec, machine)
        self._touch()

    def notify_finish(self, machine_index: int, task: Task) -> None:
        """The executing head task left the machine (completion or eviction)."""
        machine = self.machines[machine_index]
        rec = self._records[machine_index]
        if (
            rec.version == machine.queue_version - 1
            and rec.tasks
            and rec.tasks[0] is task
        ):
            # The whole chain was anchored on the departed head.
            del rec.tasks[0]
            self._truncate(rec, 0)
            rec.version = machine.queue_version
        else:
            self._resync_from_machine(rec, machine)
        self._touch()

    def notify_remove(self, machine_index: int, task: Task) -> None:
        """A pending task was removed (deadline miss or proactive drop)."""
        machine = self.machines[machine_index]
        rec = self._records[machine_index]
        position = next(
            (k for k, queued in enumerate(rec.tasks) if queued is task), None
        )
        if rec.version == machine.queue_version - 1 and position is not None:
            del rec.tasks[position]
            self._truncate(rec, min(rec.dirty_from, position))
            rec.version = machine.queue_version
        else:
            self._resync_from_machine(rec, machine)
        self._touch()

    def offer_step(
        self, machine_index: int, task: Task, prev: DiscretePMF, step: ChainStep
    ) -> None:
        """Hand over a chain step computed outside the state.

        ``step`` must be this state's own step — ``completion_step`` of the
        machine's PET entry for ``task`` behind ``prev`` under the state's
        policy and aggregation cap.  If ``task`` is then enqueued on the
        machine directly behind that very ``prev`` *object*, the next query
        adopts the step, by-products included, instead of recomputing it.
        Identity, not equality, is the key: the PMFs a query serves are the
        chain's own immutable entries, so ``prev is chain[k - 1]`` proves
        the step has the same inputs without comparing a single bin, and an
        offer that does not match (task never enqueued, enqueued elsewhere,
        chain re-anchored or rebuilt in between) is simply never looked at
        again.
        """
        offers = self._records[machine_index].offers
        if offers and offers[-1][2].availability is not prev:
            offers.clear()
        offers.append((task, prev, step))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def availability(self, machine_index: int, now: int) -> DiscretePMF:
        """Availability PMF of one machine's current queue at time ``now``.

        The last entry of :meth:`chain`, or ``point(now)`` for an empty
        queue.
        """
        rec = self._sync(machine_index, int(now))
        if self._obs.enabled:
            self._obs.count("state.availability_resolved")
        if not rec.tasks:
            return DiscretePMF.point(int(now))
        return rec.chain[-1]

    def chain(self, machine_index: int, now: int) -> tuple[DiscretePMF, ...]:
        """The machine's full completion-time chain (one PMF per queued task)."""
        return tuple(self._sync(machine_index, int(now)).chain)

    def availability_batch(self, now: int) -> PMFBatch:
        """All machines' availability PMFs on one aligned, padded batch grid.

        The batch is cached and only re-stacked when some machine's chain
        (or the current time, for time-anchored chains) changed; row ``j``
        is machine ``j`` and the values match :meth:`availability` bit for
        bit.
        """
        now = int(now)
        pmfs = [
            self.availability(machine_index, now)
            for machine_index in range(len(self.machines))
        ]
        key = (self._version, now)
        if self._batch_cache is not None and self._batch_cache[0] == key:
            return self._batch_cache[1]
        batch = PMFBatch.from_pmfs(pmfs)
        self._batch_cache = (key, batch)
        return batch

    def availability_excluding(
        self, machine_index: int, dropped_task_ids: Iterable[int], now: int
    ) -> DiscretePMF:
        """Availability of a machine's queue with some tasks removed.

        Post-drop availability for the perf ledger under ``bench/`` (the
        pruner computes its own in its walk): the chain *prefix* ahead of
        the first dropped task is reused verbatim
        and only the suffix behind it is re-convolved — bit-identical to
        recomputing the reduced queue from scratch, at a fraction of the
        cost.
        """
        now = int(now)
        dropped = set(dropped_task_ids)
        rec = self._sync(machine_index, now)
        tasks = rec.tasks
        kept = [task for task in tasks if task.task_id not in dropped]
        if len(kept) == len(tasks):
            return self.availability(machine_index, now)
        if not kept:
            return DiscretePMF.point(now)
        first = next(
            k for k, task in enumerate(tasks) if task.task_id in dropped
        )
        base = DiscretePMF.point(now)
        if first == 0:
            # Head (possibly the executing task) dropped: the reduced chain
            # starts from an immediately-free machine, matching the pruner.
            prev, suffix = base, kept
        else:
            prev, suffix = rec.chain[first - 1], kept[first:]
        for task in suffix:
            starts_now = prev is base and task.deadline > now
            prev = self._step(machine_index, task, prev, capped=not starts_now).availability
        return prev

    def prune_prefix_meta(
        self, machine_index: int, now: int
    ) -> tuple[tuple[float, DiscretePMF, DiscretePMF], ...]:
        """Per-task pruning inputs down the machine's *current* (no-drop) queue.

        ``result[k]`` is ``(success_probability, completion, availability)``
        of the ``k``-th queued task given every task ahead of it kept: the
        probability and the completion PMF (whose bounded skewness Eq. 7
        reads) that :meth:`repro.pruning.pruner.Pruner.prune_machine_queue`
        tests, and ``chain[k]``, the availability behind the task.  All three
        come from the chain step that produced ``chain[k]``, so neither an
        unchanged nor a changed queue costs the pruner a convolution (it
        only convolves *behind* the first task it actually drops), and the
        walk syncs the machine once.

        For an executing head the probability and the completion PMF are
        the task's raw (uncollapsed) completion PMF — the pruner evaluates
        the executing task on the chance it finishes by its deadline given
        it already started, not on the evict-collapsed chain anchor.
        """
        now = int(now)
        rec = self._sync(machine_index, now)
        for k in range(len(rec.meta), len(rec.steps)):
            step = rec.steps[k]
            if step is None:
                completion = self.machines[machine_index].executing_completion_pmf(self.pet, now)
                prob = float(min(1.0, completion.cdf(rec.tasks[0].deadline)))
            else:
                prob, completion = step.success_probability, step.completion
            rec.meta.append((prob, completion, rec.chain[k]))
        return tuple(rec.meta)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._version += 1
        self._batch_cache = None

    @staticmethod
    def _truncate(rec: _MachineChain, position: int) -> None:
        """Forget the chain (and what rides along with it) from ``position`` on."""
        del rec.chain[position:]
        del rec.steps[position:]
        del rec.meta[position:]
        rec.dirty_from = position

    def _resync_from_machine(self, rec: _MachineChain, machine: Machine) -> None:
        """Defensive full resync after an un-notified queue mutation."""
        rec.tasks = machine.queued_tasks()
        self._truncate(rec, 0)
        rec.version = machine.queue_version

    def _step(
        self, machine_index: int, task: Task, prev: DiscretePMF, *, capped: bool = True
    ) -> ChainStep:
        """This state's chain step for ``task`` queued behind ``prev``.

        ``capped=False`` for the step of a head that starts at ``now`` (from
        ``point(now)``, ``deadline > now``): it is then anchored on its
        exact completion PMF.
        """
        return completion_step(
            self.pet.get(task.task_type, machine_index),
            prev,
            task.deadline,
            self.policy,
            self.max_impulses if capped else None,
        )

    def _sync(self, machine_index: int, now: int) -> _MachineChain:
        machine = self.machines[machine_index]
        rec = self._records[machine_index]
        if rec.version != machine.queue_version:
            self._resync_from_machine(rec, machine)
            self._touch()
        tasks = rec.tasks
        if not tasks:
            rec.dirty_from = 0
            return rec
        head_executing = machine.executing is not None and tasks[0] is machine.executing
        if rec.dirty_from > 0:
            if head_executing != rec.head_executing:
                rec.dirty_from = 0
            elif not head_executing and rec.anchor_now != now:
                rec.dirty_from = 0
            elif (
                head_executing
                and self.policy is DroppingPolicy.EVICT
                and rec.anchor_now is not None
                and max(machine.executing.deadline, rec.anchor_now + 1)
                != max(machine.executing.deadline, now + 1)
            ):
                # An executing head that has outlived its deadline: the
                # evict collapse point ``max(deadline, now + 1)`` tracks
                # the query time, so the anchor must be recomputed.  (The
                # engine always evicts at the deadline, but externally
                # driven machines can be queried in this window.)
                rec.dirty_from = 0
        if rec.dirty_from >= len(tasks):
            return rec
        obs = self._obs
        if obs.enabled:
            start_ns = perf_counter_ns()
        computed, adopted = self._advance(rec, machine, now)
        if obs.enabled:
            obs.add_span(
                "state.advance",
                start_ns,
                perf_counter_ns() - start_ns,
                machine=machine_index,
                computed=computed,
                adopted=adopted,
            )
            obs.count("state.chain_steps", computed)
            obs.count("state.chain_steps_adopted", adopted)
        self._touch()
        return rec

    def _advance(
        self, rec: _MachineChain, machine: Machine, now: int
    ) -> tuple[int, int]:
        """Recompute the dirty suffix of one machine's chain.

        Returns how many chain steps were computed here and how many were
        adopted from :meth:`offer_step` hand-overs instead.
        """
        tasks = rec.tasks
        start = rec.dirty_from
        self._truncate(rec, start)
        base = None
        if start == 0:
            head_executing = (
                machine.executing is not None and tasks[0] is machine.executing
            )
            if head_executing:
                prev = machine.executing_anchor_pmf(self.pet, now, policy=self.policy)
                rec.chain.append(prev)
                rec.steps.append(None)
                start = 1
            else:
                prev = base = DiscretePMF.point(now)
            rec.head_executing = head_executing
            rec.anchor_now = now
        else:
            prev = rec.chain[start - 1]
        computed = adopted = 0
        for task in tasks[start:]:
            step = next(
                (
                    offered
                    for offered_task, offered_prev, offered in rec.offers
                    if offered_task is task and offered_prev is prev
                ),
                None,
            )
            if step is not None:
                adopted += 1
            else:
                starts_now = prev is base and task.deadline > now
                step = self._step(machine.index, task, prev, capped=not starts_now)
                computed += 1
            prev = step.availability
            rec.chain.append(prev)
            rec.steps.append(step)
        rec.offers.clear()
        rec.dirty_from = len(tasks)
        return computed, adopted
