"""Two-phase batch mapping framework (paper Section V-D / VI-C).

All six heuristics evaluated in the paper share the same skeleton:

* a *virtual queue* mirrors the real machine queues during the mapping event;
* **phase 1** finds, for every unmapped task, the best machine according to
  the heuristic's objective (minimum expected completion time for MM/MSD/MMU,
  maximum robustness for MOC/PAM/PAMF);
* **phase 2** picks one provisional (task, machine) pair, commits it to the
  virtual queue, and the process repeats until the virtual queues are full or
  the batch queue is exhausted;
* pruning-aware heuristics additionally drop queued tasks before mapping and
  defer batch tasks whose best robustness is too low.

Subclasses only implement small hooks; the iteration, virtual-queue
bookkeeping and decision assembly live here.  Availability comes from the
engine's live :class:`~repro.simulator.state.SystemState`: machine chains
are maintained incrementally across mapping events, and
:class:`VirtualSystemState` is a cheap copy-on-write *fork* of that state —
each virtual machine resolves to a reference to the live (immutable)
availability PMF the first time it is read (a machine nobody scores costs
no chain work) and only diverges as phase 2 commits provisional
assignments; the chain step of each commit is handed back to the live
state so applying the decision does not compute it again.  Phase-1 scores
are held in a :class:`ScoreTable` (robustness and expected-completion
matrices over task x machine, filled by the batched PMF engine of
:mod:`repro.core.batch`, rescored one dirty column at a time and carried
across mapping events — see the class).  The deferring stage reads the
score arrays directly; a :class:`CandidatePair` object is built only for a
task that is still a candidate when phase 2 chooses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from time import perf_counter_ns
from typing import Callable, Iterable

import numpy as np

from ..core.batch import pack_impulses
from ..core.kernels import active_backend
from ..core.pmf import DiscretePMF
from ..obs.telemetry import active as obs_active
from ..simulator.mapping import MappingContext, MappingDecision
from ..simulator.task import Task

__all__ = [
    "CandidatePair",
    "VirtualMachine",
    "VirtualSystemState",
    "ScoreTable",
    "MappingHeuristic",
    "TwoPhaseBatchHeuristic",
]


@dataclass
class CandidatePair:
    """A provisional (task, machine) pairing produced by phase 1."""

    task: Task
    machine_index: int
    #: Expected completion time of the task on the machine's virtual queue.
    expected_completion: float
    #: Probability of meeting the deadline on that virtual queue (robustness).
    robustness: float
    #: Mean execution time of the task's type on the machine (tie-breaker).
    mean_execution: float


class VirtualMachine:
    """Virtual-queue state of one machine during a mapping event.

    ``availability`` is either given or resolved by ``resolve`` on first
    read; assigning it (a phase-2 commit) replaces whichever it was.
    """

    __slots__ = ("index", "free_slots", "_availability", "_resolve")

    def __init__(
        self,
        index: int,
        free_slots: int,
        availability: DiscretePMF | None = None,
        *,
        resolve: Callable[[], DiscretePMF] | None = None,
    ) -> None:
        if availability is None and resolve is None:
            raise ValueError("a virtual machine needs an availability or a resolver")
        self.index = index
        self.free_slots = free_slots
        self._availability = availability
        self._resolve = resolve

    @property
    def availability(self) -> DiscretePMF:
        if self._availability is None:
            self._availability = self._resolve()
        return self._availability

    @availability.setter
    def availability(self, value: DiscretePMF) -> None:
        self._availability = value

    @property
    def has_free_slot(self) -> bool:
        return self.free_slots > 0


class VirtualSystemState:
    """Copy-on-write fork of the live system state for one mapping event.

    The virtual state *forks* the engine's incrementally-maintained
    :class:`~repro.simulator.state.SystemState` on demand: a virtual
    machine's availability resolves to a reference to the live PMF (PMFs
    are immutable, so no copying happens) the first time something reads it
    — :class:`ScoreTable` reads only machines with a free slot and
    :meth:`assign` the chosen one — so a full machine, or an event that
    returns before scoring anything, costs no chain work.  It only diverges
    when phase 2 commits an assignment: :meth:`assign` replaces that
    machine's reference with an extended chain, leaving the live state
    untouched.  Machines carrying pruner drops resolve through
    :meth:`~repro.simulator.mapping.MappingContext.availability_excluding`,
    which reuses the live chain prefix ahead of the first drop.  This is the
    "temporary (virtual) queue of machine-task mappings" of Section III.
    """

    def __init__(
        self,
        context: MappingContext,
        *,
        dropped_task_ids: frozenset[int] | set[int] = frozenset(),
        availability_override: dict[int, DiscretePMF] | None = None,
    ) -> None:
        self._context = context
        dropped = set(dropped_task_ids)
        override = availability_override or {}
        self.machines: list[VirtualMachine] = []
        for machine in context.machines:
            index = machine.index
            lost = (
                sum(1 for t in machine.queued_tasks() if t.task_id in dropped)
                if dropped
                else 0
            )
            free = machine.free_slots + lost
            if index in override:
                vm = VirtualMachine(index, free, override[index])
            elif not lost:
                vm = VirtualMachine(
                    index, free, resolve=partial(context.machine_availability, index)
                )
            else:
                vm = VirtualMachine(
                    index,
                    free,
                    resolve=partial(context.availability_excluding, index, dropped),
                )
            self.machines.append(vm)

    # ------------------------------------------------------------------
    @property
    def total_free_slots(self) -> int:
        return sum(m.free_slots for m in self.machines)

    def assign(self, task: Task, machine_index: int) -> None:
        """Commit a provisional mapping to the virtual queue."""
        vm = self.machines[machine_index]
        if not vm.has_free_slot:
            raise RuntimeError(f"virtual machine {machine_index} has no free slot")
        vm.availability = self._context.extend_availability(
            machine_index, task, vm.availability
        )
        vm.free_slots -= 1


class ScoreTable:
    """Batched phase-1 scores for every (batch task, machine) pair.

    ``robustness[i, j]`` is the probability that task ``i`` meets its
    deadline if mapped to machine ``j``'s current virtual queue (Eq. 1 on the
    availability x execution convolution, computed without materialising the
    convolution); ``completion[i, j]`` is the expected completion time.

    Both matrices are filled by one call into the batched PMF engine
    (:mod:`repro.core.batch`): the virtual availabilities are packed to
    their own impulses and :func:`packed_success_probability` scores the
    whole grid against the PET matrix's cached
    :class:`~repro.core.batch.CDFTable` — bit-identical to the scalar
    :func:`~repro.heuristics.scoring.fast_success_probability` per pair.
    Refreshes are *dirty-column driven*: after phase 2 commits an assignment
    the affected machine is merely marked dirty (:meth:`mark_dirty`) and the
    one-column rescore runs lazily at the next :meth:`best_rows` call —
    several dirty columns flush through one batched kernel call, and a
    column dirtied after the final commit of an event is never rescored at
    all.  The values are bit-identical however the grid is cut into calls.

    The fill is *incremental across mapping events*: given the ``previous``
    event's table it copies ``robustness[row, j]`` for every task that was a
    row there into every open column whose availability **is** the object
    that column was last scored against, and hands the kernel only the rest
    (all rows of changed columns, new rows of unchanged ones) as one pair
    list.  A score is a function of the task, the machine's PET column and
    the (immutable) availability PMF only — never of ``now`` — so object
    identity is a sufficient key, and the previous table's strong
    references keep every keyed object alive.  ``completion`` is recomputed
    every time (two cached means per pair).
    """

    def __init__(
        self,
        context: MappingContext,
        virtual: VirtualSystemState,
        tasks: list[Task],
        previous: "ScoreTable | None" = None,
    ) -> None:
        self._pet = context.pet
        self._cdf_table = context.pet.cdf_table()
        self._kernels = active_backend()
        self._virtual = virtual
        self._dirty: set[int] = set()
        self.tasks = list(tasks)
        self.n = len(self.tasks)
        self.m = len(context.machines)
        specs = [t.spec for t in self.tasks]
        self._ids = [spec.task_id for spec in specs]
        self.task_ids = np.array(self._ids, dtype=np.int64)
        self.deadlines = np.array([spec.deadline for spec in specs], dtype=np.int64)
        self.types = np.array([spec.task_type for spec in specs], dtype=np.int64)
        self.active = np.ones(self.n, dtype=bool)
        self._index_of = dict(zip(self._ids, range(self.n)))
        self.mean_execution = self._pet.mean_execution_times()[self.types, :]
        self.robustness = np.full((self.n, self.m), -1.0, dtype=np.float64)
        self.completion = np.full((self.n, self.m), np.inf, dtype=np.float64)
        self.machine_open = np.zeros(self.m, dtype=bool)
        #: Per column, the availability object ``robustness[:, j]`` holds the
        #: scores of (``None``: closed or never scored).
        self._scored_against: list[DiscretePMF | None] = [None] * self.m
        #: (task, machine) pairs handed to the kernel / copied from ``previous``.
        self.pairs_scored = 0
        self.pairs_reused = 0
        obs = obs_active()
        if obs.enabled:
            start_ns = perf_counter_ns()
        self.refresh_machines(
            (vm.index for vm in virtual.machines), virtual, previous=previous
        )
        if obs.enabled:
            obs.add_span(
                "score_table.fill",
                start_ns,
                perf_counter_ns() - start_ns,
                tasks=self.n,
                machines=self.m,
            )
            obs.count("score_table.fills")
            obs.count("score_table.pairs_scored", self.pairs_scored)
            obs.count("score_table.pairs_reused", self.pairs_reused)

    # ------------------------------------------------------------------
    def mark_dirty(self, machine_index: int) -> None:
        """Mark one machine's column stale after a phase-2 commit.

        The rescore is deferred until the next :meth:`best_pairs` call; a
        column that is never read again (e.g. dirtied by the last commit of
        a mapping event) is never recomputed.
        """
        self._dirty.add(int(machine_index))

    def _flush_dirty(self) -> None:
        """Rescore all dirty columns in one batched call."""
        if not self._dirty:
            return
        dirty = sorted(self._dirty)
        self._dirty.clear()
        obs = obs_active()
        if obs.enabled:
            start_ns = perf_counter_ns()
            scored_before = self.pairs_scored
        self.refresh_machines(dirty, self._virtual)
        if obs.enabled:
            obs.add_span(
                "score_table.rescore",
                start_ns,
                perf_counter_ns() - start_ns,
                columns=len(dirty),
            )
            obs.count("score_table.rescores")
            obs.count("score_table.dirty_columns", len(dirty))
            obs.count("score_table.pairs_scored", self.pairs_scored - scored_before)

    def refresh_machines(
        self,
        machine_indices: Iterable[int],
        virtual: VirtualSystemState,
        previous: "ScoreTable | None" = None,
    ) -> None:
        """Recompute the score columns of several machines.

        One kernel call over the grid or, when ``previous`` (another event's
        table) holds part of it, over the rest: see :meth:`_carry_from`.
        """
        open_indices: list[int] = []
        for machine_index in machine_indices:
            self._dirty.discard(machine_index)
            if virtual.machines[machine_index].has_free_slot:
                self.machine_open[machine_index] = True
                open_indices.append(machine_index)
            else:
                self.machine_open[machine_index] = False
                self.robustness[:, machine_index] = -1.0
                self.completion[:, machine_index] = np.inf
                self._scored_against[machine_index] = None
        if not open_indices or self.n == 0:
            return
        availabilities = [virtual.machines[j].availability for j in open_indices]
        columns = np.array(open_indices, dtype=np.int64)
        expected_start = np.array([a.mean() for a in availabilities], dtype=np.float64)
        completion = self._kernels.expected_completion(
            expected_start, self.mean_execution[:, columns]
        )
        # A zero-mass availability has no expected start time; such machines
        # can never complete anything (robustness is already exactly 0).
        completion[:, np.isnan(expected_start)] = np.inf
        self.completion[:, columns] = completion

        pairs = None if previous is None else self._carry_from(previous, columns, availabilities)
        if pairs is None or pairs[0].size:
            self._score(columns, availabilities, pairs)
        for machine_index, availability in zip(open_indices, availabilities):
            self._scored_against[machine_index] = availability

    def _score(
        self,
        columns: np.ndarray,
        availabilities: list[DiscretePMF],
        pairs: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """One kernel call: all tasks x ``columns``, or ``pairs`` (rows, positions in columns)."""
        scores = self._kernels.success_probability(
            *pack_impulses(availabilities),
            self._cdf_table,
            self.types,
            self.deadlines,
            columns,
            pairs,
        )
        if pairs is None:
            self.robustness[:, columns] = scores
        else:
            self.robustness[pairs[0], columns[pairs[1]]] = scores
        self.pairs_scored += scores.size

    def _carry_from(
        self,
        previous: "ScoreTable",
        columns: np.ndarray,
        availabilities: list[DiscretePMF],
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Fill ``columns`` from ``previous`` where it can; the pairs still to score.

        A pair is carried when its task was a row of ``previous`` and the
        column's availability *is* the object ``previous`` last scored that
        column against: the live chain entry of a machine nothing happened
        to, the ``chain[-1]`` the pruner hands through for a machine it
        drops nothing from, or the phase-2 step the engine adopted.  (An
        equal-valued new object — an idle machine's ``point(now)`` — is
        simply scored again; nothing is ever compared by value.)  The rest
        — new rows of unchanged columns, all rows of changed ones — comes
        back as one pair list; ``None`` when nothing could be carried.
        """
        if (
            previous._cdf_table is not self._cdf_table
            or previous._kernels is not self._kernels
            or previous.m != self.m
        ):
            return None
        scored_against = previous._scored_against
        same = [scored_against[j] is a for j, a in zip(columns.tolist(), availabilities)]
        if not any(same):
            return None
        rows: list[int] = []
        previous_rows: list[int] = []
        previous_index = previous._index_of
        previous_tasks = previous.tasks
        tasks = self.tasks
        for row, task_id in enumerate(self._ids):
            previous_row = previous_index.get(task_id)
            if previous_row is not None and previous_tasks[previous_row] is tasks[row]:
                rows.append(row)
                previous_rows.append(previous_row)
        if not rows:
            return None
        held = np.array(rows)[:, None]
        same = np.array(same)
        same_columns = columns[same]
        self.robustness[held, same_columns] = previous.robustness[
            np.array(previous_rows)[:, None], same_columns
        ]
        self.pairs_reused += len(rows) * same_columns.size
        owed = np.ones((self.n, columns.size), dtype=bool)
        owed[held, np.flatnonzero(same)] = False
        return np.nonzero(owed)

    def refresh_machine(self, machine_index: int, virtual: VirtualSystemState) -> None:
        """Recompute one machine's scores against all tasks."""
        self.refresh_machines((machine_index,), virtual)

    def deactivate(self, task_ids) -> None:
        for task_id in task_ids:
            index = self._index_of.get(task_id)
            if index is not None:
                self.active[index] = False

    @property
    def any_active(self) -> bool:
        return bool(self.active.any())

    # ------------------------------------------------------------------
    def best_rows(self, *, robustness_based: bool) -> tuple[np.ndarray, np.ndarray]:
        """Phase 1 on arrays: the candidate task rows and each one's best machine.

        One argmax/argmin over the batched score matrices picks every active
        task's machine at once; rows whose best machine is closed or can
        never complete anything are left out.  Any columns dirtied by
        phase-2 commits since the previous call are rescored first (one
        batched kernel call for all of them).
        """
        self._flush_dirty()
        if not self.any_active or not self.machine_open.any():
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        active_idx = np.nonzero(self.active)[0]
        completion = self.completion[active_idx, :]
        if robustness_based:
            primary, secondary = self.robustness[active_idx, :], completion
            best_primary = primary.max(axis=1)
        else:
            primary, secondary = completion, self.mean_execution[active_idx, :]
            best_primary = primary.min(axis=1)
        tie = primary == best_primary[:, None]
        best_machine = np.where(tie, secondary, np.inf).argmin(axis=1)
        valid = self.machine_open[best_machine] & np.isfinite(
            completion[np.arange(active_idx.size), best_machine]
        )
        return active_idx[valid], best_machine[valid]

    def pairs(self, rows: np.ndarray, machines: np.ndarray) -> list[CandidatePair]:
        """The (task row, machine) candidates as objects for phase 2."""
        return [
            CandidatePair(
                task=self.tasks[row],
                machine_index=machine_index,
                expected_completion=float(self.completion[row, machine_index]),
                robustness=float(self.robustness[row, machine_index]),
                mean_execution=float(self.mean_execution[row, machine_index]),
            )
            for row, machine_index in zip(rows.tolist(), machines.tolist())
        ]

    def best_pairs(self, *, robustness_based: bool) -> list[CandidatePair]:
        """Phase 1: the best machine for every active task, as objects."""
        return self.pairs(*self.best_rows(robustness_based=robustness_based))


class MappingHeuristic(abc.ABC):
    """Interface the simulation engine drives at every mapping event."""

    #: Short display name used in experiment reports ("PAM", "MM", ...).
    name: str = "heuristic"

    @abc.abstractmethod
    def map_tasks(self, context: MappingContext) -> MappingDecision:
        """Return the assignments/drops/deferrals for one mapping event."""

    def reset(self) -> None:
        """Clear any cross-event state before a new simulation run.

        Overrides must chain to ``super().reset()``.
        """


class TwoPhaseBatchHeuristic(MappingHeuristic):
    """Shared two-phase mapping loop; subclasses provide the selection rules."""

    #: Whether phase 1 scores pairs by robustness (True) or expected
    #: completion time (False).  Robustness-based heuristics still record the
    #: expected completion time for phase-2 tie-breaking.
    robustness_based: bool = False

    #: The latest mapping event's score table; the next fill carries over
    #: every score whose task and availability object are unchanged.
    _previous_table: ScoreTable | None = None

    def reset(self) -> None:
        super().reset()
        self._previous_table = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_event_start(self, context: MappingContext) -> None:
        """Called once per mapping event before anything else."""

    def pre_mapping(
        self, context: MappingContext, decision: MappingDecision
    ) -> tuple[set[int], dict[int, DiscretePMF] | None]:
        """Dropping stage hook.

        Returns the set of task ids dropped from machine queues (already
        recorded in ``decision``) plus, optionally, the post-drop machine
        availability PMFs so the virtual state can skip recomputation.
        """
        return set(), None

    #: Whether deferred candidates count as pruner deferrals
    #: (``MappingDecision.deferrals``); a culled task is just left out.
    records_deferrals: bool = False

    def filter_candidates(
        self, robustness: np.ndarray, task_types: np.ndarray
    ) -> np.ndarray | None:
        """Deferring stage hook, on the phase-1 score arrays.

        Given every candidate's best robustness and task type, returns the
        boolean mask of candidates to defer (removed from this mapping
        event; they stay in the batch queue), or ``None`` to keep them all.
        """
        return None

    @abc.abstractmethod
    def phase2_select(self, pairs: list[CandidatePair], context: MappingContext) -> CandidatePair:
        """Pick the provisional pair to commit this iteration."""

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def map_tasks(self, context: MappingContext) -> MappingDecision:
        decision = MappingDecision()
        self.on_event_start(context)
        dropped_ids, availability_override = self.pre_mapping(context, decision)
        virtual = VirtualSystemState(
            context,
            dropped_task_ids=dropped_ids,
            availability_override=availability_override,
        )
        tasks = list(context.batch)
        if not tasks or virtual.total_free_slots == 0:
            return decision
        table = ScoreTable(context, virtual, tasks, previous=self._previous_table)
        self._previous_table = table

        while table.any_active and virtual.total_free_slots > 0:
            rows, machines = table.best_rows(robustness_based=self.robustness_based)
            if not rows.size:
                break
            deferred = self.filter_candidates(table.robustness[rows, machines], table.types[rows])
            if deferred is not None and deferred.any():
                table.active[rows[deferred]] = False
                if self.records_deferrals:
                    decision.deferrals.extend(table.task_ids[rows[deferred]].tolist())
                kept = ~deferred
                rows, machines = rows[kept], machines[kept]
                if not rows.size:
                    continue
            chosen = self.phase2_select(table.pairs(rows, machines), context)
            decision.assign(chosen.task, chosen.machine_index)
            virtual.assign(chosen.task, chosen.machine_index)
            table.deactivate([chosen.task.task_id])
            table.mark_dirty(chosen.machine_index)
        return decision
