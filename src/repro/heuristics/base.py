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
stage reads the score arrays directly; a :class:`CandidatePair` object is
built only for a task that is still a candidate when phase 2 chooses.
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
    """A provisional (task, machine) pairing produced by phase 1."""

    task: Task
    machine_index: int
    #: Expected completion time of the task on the machine's virtual queue.
    expected_completion: float
    #: Probability of meeting the deadline on that virtual queue (robustness).
    robustness: float
    #: Mean execution time of the task's type on the machine (tie-breaker).
    mean_execution: float


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
        self._dropped = set(dropped_task_ids)
        #: Free queue slots of each virtual machine.
        self.free_slots = [machine.free_slots for machine in context.machines]
        self._availability: list[DiscretePMF | None] = [None] * len(self.free_slots)
        #: Machines that lost queued tasks to the pruner.
        self._lost: set[int] = set()
        if self._dropped:
            for index, machine in enumerate(context.machines):
                lost = sum(1 for t in machine.queued_tasks() if t.task_id in self._dropped)
                if lost:
                    self.free_slots[index] += lost
                    self._lost.add(index)
        for index, availability in (availability_override or {}).items():
            self._availability[index] = availability
        self.total_free_slots = sum(self.free_slots)

    def availability(self, machine_index: int) -> DiscretePMF:
        """The availability PMF machine ``machine_index``'s virtual queue ends in."""
        availability = self._availability[machine_index]
        if availability is None:
            if machine_index in self._lost:
                availability = self._context.availability_excluding(machine_index, self._dropped)
            else:
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

    A different PET or machine count starts the table over.
    """

    def __init__(self) -> None:
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
                kept = self.n = 0
                break
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
        times, probs = availability.impulses()
        width = times.size
        if width > self._start_times.shape[1]:
            self._start_times = np.pad(self._start_times, ((0, 0), (0, width)))
            self._start_probs = np.pad(self._start_probs, ((0, 0), (0, width)))
        self._start_times[j, :width] = times
        self._start_probs[j, :width] = probs
        # Padding carries probability 0.0: an exact +0.0 in the kernel's sum.
        self._start_probs[j, width:] = 0.0
        self._widths[j] = width
        self._means[j] = availability.mean()
        self._scored_against[j] = availability
        self.machine_open[j] = True

    def _score(self, rows: np.ndarray, columns: np.ndarray) -> None:
        """One kernel call over the listed (slot, machine) pairs, and their completions."""
        obs = self._obs
        if obs is not None:
            start_ns = perf_counter_ns()
        width = int(self._widths[columns].max())
        n = self.n
        self.robustness[rows, columns] = packed_success_probability(
            self._start_times[:, :width],
            self._start_probs[:, :width],
            self._cdf_table,
            self.types[:n],
            self.deadlines[:n],
            None,
            (rows, columns),
        )
        if obs is not None:
            obs.add_span("kernel.success_probability", start_ns, perf_counter_ns() - start_ns)
        # Linearity of expectation: availability mean + execution mean.  A
        # zero-mass availability has no expected start time (nan); such
        # machines can never complete anything (robustness is already 0).
        completion = self._means[columns] + self.mean_execution[rows, columns]
        completion[np.isnan(completion)] = np.inf
        self.completion[rows, columns] = completion
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

    @property
    def any_active(self) -> bool:
        return bool(self.active[: self.n].any())

    # ------------------------------------------------------------------
    def best_rows(self, *, robustness_based: bool) -> tuple[np.ndarray, np.ndarray]:
        """Phase 1 on arrays: the candidate slots and each one's best machine.

        One argmax/argmin over the active rows of the score matrices picks
        every active task's machine at once; rows whose best machine is
        closed or can never complete anything are left out.  Any columns
        dirtied by phase-2 commits since the previous call are rescored
        first (one batched kernel call for all of them).
        """
        self._flush_dirty()
        active_idx = np.flatnonzero(self.active[: self.n])
        if not active_idx.size or not self.machine_open.any():
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        completion = self.completion[active_idx]
        if robustness_based:
            primary, secondary = self.robustness[active_idx], completion
            best_primary = primary.max(axis=1)
        else:
            primary, secondary = completion, self.mean_execution[active_idx]
            best_primary = primary.min(axis=1)
        tie = primary == best_primary[:, None]
        best_machine = np.where(tie, secondary, np.inf).argmin(axis=1)
        valid = self.machine_open[best_machine] & np.isfinite(
            completion[np.arange(active_idx.size), best_machine]
        )
        return active_idx[valid], best_machine[valid]

    def pairs(self, rows: np.ndarray, machines: np.ndarray) -> list[CandidatePair]:
        """The (slot, machine) candidates as objects for phase 2."""
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
            self._table = ScoreTable()
        table = self._table
        table.fill(context, virtual)

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
            pairs = table.pairs(rows, machines)
            chosen = self.phase2_select(pairs, context)
            decision.assign(chosen.task, chosen.machine_index)
            virtual.assign(chosen.task, chosen.machine_index)
            position = next(i for i, pair in enumerate(pairs) if pair.task is chosen.task)
            table.active[rows[position]] = False
            table.mark_dirty(chosen.machine_index)
        return decision
