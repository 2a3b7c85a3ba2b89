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
are held in one :class:`ScoreTable` per run (robustness and
expected-completion matrices over task slot x machine, filled by the
batched PMF engine of :mod:`repro.core.batch`; each mapping event scores
only the rows and columns that changed — see the class).  The deferring
stage is a mask over each candidate's best score, and phase 2 one
``np.lexsort`` of the heuristic's key arrays (``phase2_keys``); only MOC's
permutation search builds :class:`CandidatePair` objects, for its top few.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Iterable

import numpy as np

from ..core.batch import packed_success_probability
from ..core.pmf import DiscretePMF
from ..obs.telemetry import active as obs_active
from ..simulator.mapping import MappingContext, MappingDecision
from ..simulator.task import Task, TaskStatus

__all__ = [
    "CandidatePair",
    "VirtualSystemState",
    "ScoreTable",
    "MappingHeuristic",
    "TwoPhaseBatchHeuristic",
]


@dataclass
class CandidatePair:
    """A provisional (task, machine) pairing, as MOC's permutation search reads it."""

    task: Task
    machine_index: int
    #: Probability of meeting the deadline on the machine's virtual queue.
    robustness: float


class VirtualSystemState:
    """Copy-on-write fork of the live system state for one mapping event.

    Two plain lists, indexed by machine: the free slots and the availability
    PMF each virtual queue ends in.  An availability is resolved the first
    time something reads it — through ``context.machine_availability``, a
    reference to the live (immutable) chain entry of
    :class:`~repro.simulator.state.SystemState` (no copying happens) —
    :class:`ScoreTable` reads only machines with a free slot and
    :meth:`assign` the chosen one, so a full machine, or an event that
    returns before scoring anything, costs no chain work.  The fork only
    diverges when phase 2 commits an assignment: :meth:`assign` replaces
    that machine's entry with an extended chain, leaving the live state
    untouched.  A machine that lost queued tasks to the pruner must come
    with its post-drop availability in ``availability_override`` (what
    :meth:`~repro.pruning.pruner.Pruner.select_queue_drops` returns for
    every machine); without one the constructor raises ``ValueError``.
    This is the "temporary (virtual) queue of machine-task mappings" of
    Section III.
    """

    def __init__(
        self,
        context: MappingContext,
        *,
        dropped_task_ids: frozenset[int] | set[int] = frozenset(),
        availability_override: dict[int, DiscretePMF] | None = None,
    ) -> None:
        self._context = context
        override = availability_override or {}
        #: Free queue slots of each virtual machine.
        self.free_slots = [machine.free_slots for machine in context.machines]
        self._availability: list[DiscretePMF | None] = [None] * len(self.free_slots)
        if dropped_task_ids:
            for index, machine in enumerate(context.machines):
                lost = sum(1 for t in machine.queued_tasks() if t.task_id in dropped_task_ids)
                if lost and index not in override:
                    raise ValueError(
                        f"machine {index} lost queued tasks but has no availability override"
                    )
                self.free_slots[index] += lost
        for index, availability in override.items():
            self._availability[index] = availability
        self.total_free_slots = sum(self.free_slots)

    def availability(self, machine_index: int) -> DiscretePMF:
        """The availability PMF machine ``machine_index``'s virtual queue ends in."""
        availability = self._availability[machine_index]
        if availability is None:
            availability = self._context.machine_availability(machine_index)
            self._availability[machine_index] = availability
        return availability

    def assign(self, task: Task, machine_index: int) -> None:
        """Commit a provisional mapping to the virtual queue."""
        if self.free_slots[machine_index] <= 0:
            raise RuntimeError(f"virtual machine {machine_index} has no free slot")
        self._availability[machine_index] = self._context.extend_availability(
            machine_index, task, self.availability(machine_index)
        )
        self.free_slots[machine_index] -= 1
        self.total_free_slots -= 1


#: Per-slot arrays of :class:`ScoreTable`, moved together by ``_reslot``.
_ROW_ARRAYS = (
    "task_ids",
    "types",
    "deadlines",
    "mean_execution",
    "robustness",
    "completion",
    "live",
    "active",
)


class ScoreTable:
    """Phase-1 scores of every (batch task, machine) pair, kept for a whole run.

    ``robustness[i, j]`` is the probability that the task in slot ``i``
    meets its deadline if mapped to machine ``j``'s current virtual queue
    (Eq. 1 on the availability x execution convolution, computed without
    materialising it); ``completion[i, j]`` is the expected completion time.
    A score is a function of the task, the machine's PET column and the
    (immutable) availability PMF only — never of ``now`` — so the table
    outlives the mapping event and each :meth:`fill` pays only for what
    changed since the previous one.

    **Rows** live in arrival-ordered *slots*: a fill appends the batch's
    arrivals, tombstones (``live[i] = False``) the slot of every task that
    is no longer pending, and compacts the arrays once dead slots outnumber
    live ones.  The live slots must be the batch's prefix, task object for
    task object; when they are not (a task re-sorted into the batch, a
    context built by hand) the rows start over.  ``active`` is this event's
    subset of ``live``: phase 2 clears the slot of each committed or
    deferred task.

    **Columns** each keep the availability object they were scored against
    together with its ``mean()`` and its impulses, packed into one row of
    ``(m, K)`` operands.  A fill compares each open column's availability
    with that object *by identity* — the live chain entry of a machine
    nothing happened to, the ``chain[-1]`` the pruner hands through, the
    phase-2 step the engine adopted — and hands the kernel, in one call
    whose pair list comes from one boolean mask, only new rows x kept
    columns plus live rows x changed columns.  (An equal-valued new object —
    an idle machine's ``point(now)`` — is simply scored again; nothing is
    compared by value.)  A full machine's column is closed: ``-1`` / ``inf``,
    and its object forgotten.  After a phase-2 commit the machine is only
    marked dirty (:meth:`mark_dirty`); dirty columns are rescored together
    at the next :meth:`best_rows`, and one dirtied by the last commit of an
    event is never rescored at all.  Values are bit-identical however the
    pairs are cut into calls (:func:`~repro.core.batch.packed_success_probability`).

    A table that is not ``robustness_based`` (MM, MSD, MMU read only
    completions) never calls the kernel: its robustness stays ``-1``.

    A different PET or machine count starts the table over.
    """

    def __init__(self, *, robustness_based: bool = True) -> None:
        #: Whether phase 1 picks by robustness (and so needs it scored).
        self.robustness_based = robustness_based
        #: What the scores were computed with; anything else starts over.
        self._cdf_table = None
        self.m = 0
        self._virtual: VirtualSystemState | None = None
        self._dirty: set[int] = set()
        #: The enabled telemetry of the fill or rescore in progress, else None.
        self._obs = None
        #: (task, machine) pairs handed to the kernel / carried over since
        #: the latest fill began.
        self.pairs_scored = 0
        self.pairs_reused = 0

    def _restart(self, pet, cdf_table, m: int) -> None:
        """Forget every row and column."""
        self._cdf_table, self.m = cdf_table, m
        self._pet_means = pet.mean_execution_times()[:, :m]
        self.machine_open = np.zeros(m, dtype=bool)
        #: Per column, the availability object its scores were computed
        #: against (``None``: closed or never scored), its mean, and its
        #: impulses as row ``j`` of the packed kernel operand.
        self._scored_against: list[DiscretePMF | None] = [None] * m
        self._means = np.zeros(m, dtype=np.float64)
        self._widths = np.zeros(m, dtype=np.int64)
        self._start_times = np.zeros((m, 1), dtype=np.int64)
        self._start_probs = np.zeros((m, 1), dtype=np.float64)
        #: Slots in use: rows ``[0, n)`` of ``tasks`` and the per-slot arrays.
        self.n = 0
        self.tasks: list[Task] = []
        self.task_ids = np.zeros(0, dtype=np.int64)
        self.types = np.zeros(0, dtype=np.int64)
        self.deadlines = np.zeros(0, dtype=np.int64)
        self.mean_execution = np.zeros((0, m), dtype=np.float64)
        self.robustness = np.zeros((0, m), dtype=np.float64)
        self.completion = np.zeros((0, m), dtype=np.float64)
        self.live = np.zeros(0, dtype=bool)
        self.active = np.zeros(0, dtype=bool)

    def _reslot(self, keep: np.ndarray, capacity: int) -> None:
        """Move the rows of slots ``keep`` (ascending) to the front of ``capacity`` slots."""
        for name in _ROW_ARRAYS:
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[: keep.size] = old[keep]
            setattr(self, name, new)
        self.tasks = [self.tasks[slot] for slot in keep.tolist()]
        self.n = keep.size

    # ------------------------------------------------------------------
    def fill(self, context: MappingContext, virtual: VirtualSystemState) -> None:
        """Bring the table up to date with a mapping event's batch and fork."""
        obs = obs_active()
        if obs.enabled:
            start_ns = perf_counter_ns()
            self._obs = obs
        else:
            self._obs = None
        pet = context.pet
        cdf_table, m = pet.cdf_table(), len(context.machines)
        if cdf_table is not self._cdf_table or m != self.m:
            self._restart(pet, cdf_table, m)
        self._virtual = virtual
        self._dirty.clear()
        self.pairs_scored = self.pairs_reused = 0
        new_from = self._align_rows(context.batch)
        self.active[: self.n] = self.live[: self.n]
        self._refresh(range(self.m), new_from)
        if obs.enabled:
            obs.add_span(
                "score_table.fill",
                start_ns,
                perf_counter_ns() - start_ns,
                tasks=len(context.batch),
                machines=self.m,
            )
            obs.count("score_table.fills")
            obs.count("score_table.pairs_scored", self.pairs_scored)
            obs.count("score_table.pairs_reused", self.pairs_reused)

    def _align_rows(self, batch: tuple[Task, ...]) -> int:
        """Tombstone departed rows and append the batch's arrivals; the first new slot."""
        tasks, live = self.tasks, self.live
        kept = 0
        for slot in np.flatnonzero(live[: self.n]).tolist():
            task = tasks[slot]
            if task.status is not TaskStatus.PENDING:
                live[slot] = False
            elif kept < len(batch) and batch[kept] is task:
                kept += 1
            else:  # the survivors are not the batch's prefix: start the rows over
                kept = 0
                break
        if not kept:  # no row is kept: the rows start over in place
            self.n = 0
        arrivals = batch[kept:]
        if 2 * kept < self.n or self.n + len(arrivals) > live.size:
            # Dead slots outnumber live ones, or the arrivals do not fit.
            capacity = live.size if len(batch) <= live.size else 2 * len(batch)
            self._reslot(np.flatnonzero(live[: self.n]), capacity)
        start = self.n
        if arrivals:
            self.n = start + len(arrivals)
            del self.tasks[start:]
            self.tasks.extend(arrivals)
            specs = [task.spec for task in arrivals]
            new = slice(start, self.n)
            self.task_ids[new] = [spec.task_id for spec in specs]
            self.types[new] = [spec.task_type for spec in specs]
            self.deadlines[new] = [spec.deadline for spec in specs]
            self.mean_execution[new] = self._pet_means[self.types[new]]
            self.robustness[new] = -1.0
            self.completion[new] = np.inf
            self.live[new] = True
        return start

    def _refresh(self, columns: Iterable[int], new_from: int) -> None:
        """Bring ``columns`` up to date with the fork: close, keep or rescore each.

        A kept column owes scores to the rows from ``new_from`` on, a
        changed one to every live row; all of them go to one kernel call.
        """
        virtual, n = self._virtual, self.n
        changed: list[int] = []
        kept: list[int] = []
        for j in columns:
            if virtual.free_slots[j] > 0:
                availability = virtual.availability(j)
                if availability is self._scored_against[j]:
                    kept.append(j)
                else:
                    self._set_column(j, availability)
                    changed.append(j)
            elif self.machine_open[j]:
                self.machine_open[j] = False
                self._scored_against[j] = None
                self.robustness[:n, j] = -1.0
                self.completion[:n, j] = np.inf
        owed = np.zeros((n, self.m), dtype=bool)
        if changed:
            owed[:, changed] = self.live[:n, None]
        if kept:
            owed[new_from:, kept] = True
            self.pairs_reused += int(np.count_nonzero(self.live[:new_from])) * len(kept)
        rows, columns = np.nonzero(owed)
        if rows.size:
            self._score(rows, columns)

    def _set_column(self, j: int, availability: DiscretePMF) -> None:
        """Key column ``j`` on ``availability``: its mean and packed impulses."""
        if self.robustness_based:
            times, probs = availability.impulses()
            width = times.size
            grow = width - self._start_times.shape[1]
            if grow > 0:
                self._start_times = np.pad(self._start_times, ((0, 0), (0, grow)))
                self._start_probs = np.pad(self._start_probs, ((0, 0), (0, grow)))
            self._start_times[j, :width] = times
            self._start_probs[j, :width] = probs
            # Padding carries probability 0.0: an exact +0.0 in the kernel's sum.
            self._start_probs[j, width:] = 0.0
            self._widths[j] = width
        # A zero-mass availability has no expected start time: such a
        # machine can never complete anything (its robustness is 0).
        mean = availability.mean()
        self._means[j] = np.inf if mean != mean else mean
        self._scored_against[j] = availability
        self.machine_open[j] = True

    def _score(self, rows: np.ndarray, columns: np.ndarray) -> None:
        """One kernel call over the listed (slot, machine) pairs, and their completions.

        Pairs all in one column are scored as that column's grid over the
        listed rows: its operand row broadcasts instead of being gathered
        once per pair.
        """
        if self.robustness_based:
            obs = self._obs
            if obs is not None:
                start_ns = perf_counter_ns()
            width, j = self._widths[columns].max(), columns[0]
            if (columns == j).all():
                operand, tasks, machines, pairs = slice(j, j + 1), rows, columns[:1], None
            else:
                operand, tasks, machines, pairs = slice(None), slice(self.n), None, (rows, columns)
            self.robustness[rows, columns] = packed_success_probability(
                self._start_times[operand, :width],
                self._start_probs[operand, :width],
                self._cdf_table,
                self.types[tasks],
                self.deadlines[tasks],
                machines,
                pairs,
            ).ravel()
            if obs is not None:
                obs.add_span("kernel.success_probability", start_ns, perf_counter_ns() - start_ns)
        # Linearity of expectation: availability mean + execution mean.
        self.completion[rows, columns] = self._means[columns] + self.mean_execution[rows, columns]
        self.pairs_scored += rows.size

    # ------------------------------------------------------------------
    def mark_dirty(self, machine_index: int) -> None:
        """Mark one machine's column stale after a phase-2 commit.

        The rescore is deferred until the next :meth:`best_rows` call; a
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
            self._obs = obs
        else:
            self._obs = None
        self._refresh(dirty, self.n)
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

    # ------------------------------------------------------------------
    def best_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1 on arrays: the candidate slots, each one's best machine and score.

        One argmax/argmin over the active rows of the score matrices picks
        every active task's machine at once; rows whose best machine is
        closed or can never complete anything are left out.  Any columns
        dirtied by phase-2 commits since the previous call are rescored
        first (one batched kernel call for all of them) — unless no row is
        active.
        """
        active = self.active[: self.n].nonzero()[0]
        if not active.size:
            return active, active, np.zeros(0)
        self._flush_dirty()
        # A closed column holds completion inf: never a valid best machine.
        completion = self.completion[active]
        if self.robustness_based:
            robustness = self.robustness[active]
            best = robustness.max(axis=1)
            tied = np.where(robustness == best[:, None], completion, np.inf)
            machines = tied.argmin(axis=1)
            valid = np.isfinite(tied.min(axis=1))
        else:
            best = completion.min(axis=1)
            tied = np.where(completion == best[:, None], self.mean_execution[active], np.inf)
            machines = tied.argmin(axis=1)
            valid = np.isfinite(best)
        if valid.all():
            return active, machines, best
        return active[valid], machines[valid], best[valid]


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

    #: The run's phase-1 table; ``None`` until the first fill.
    _table: ScoreTable | None = None

    def reset(self) -> None:
        super().reset()
        self._table = None

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

    def phase2_keys(self, table: ScoreTable, rows, machines) -> tuple[np.ndarray, ...]:
        """Phase-2 sort keys of the candidates ``(rows, machines)``, most significant first.

        The pair to commit is the first in key order.  Default: the lowest
        expected completion, ties to the shortest mean execution, then to
        the lowest task id (MinMin; also PAM's rule).
        """
        completion = table.completion[rows, machines]
        return completion, table.mean_execution[rows, machines], table.task_ids[rows]

    def phase2_pick(self, table: ScoreTable, rows, machines) -> int:
        """Position in ``rows`` of the pair to commit: the first in key order."""
        return int(np.lexsort(self.phase2_keys(table, rows, machines)[::-1])[0])

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def map_tasks(self, context: MappingContext) -> MappingDecision:
        decision = MappingDecision()
        self.on_event_start(context)
        dropped_ids, availability_override = self.pre_mapping(context, decision)
        if not context.batch:
            return decision
        virtual = VirtualSystemState(
            context,
            dropped_task_ids=dropped_ids,
            availability_override=availability_override,
        )
        if virtual.total_free_slots == 0:
            return decision
        if self._table is None:
            self._table = ScoreTable(robustness_based=self.robustness_based)
        table = self._table
        table.fill(context, virtual)

        while virtual.total_free_slots > 0:
            rows, machines, best = table.best_rows()
            if not rows.size:
                break
            deferred = self.filter_candidates(best, table.types[rows])
            if deferred is not None and deferred.any():
                table.active[rows[deferred]] = False
                if self.records_deferrals:
                    decision.deferrals.extend(table.task_ids[rows[deferred]].tolist())
                kept = ~deferred
                rows, machines = rows[kept], machines[kept]
                if not rows.size:
                    continue
            position = self.phase2_pick(table, rows, machines)
            row, machine = int(rows[position]), int(machines[position])
            task = table.tasks[row]
            decision.assign(task, machine)
            virtual.assign(task, machine)
            table.active[row] = False
            table.mark_dirty(machine)
        return decision
