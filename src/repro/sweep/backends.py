"""Where the sweep executor's trials run.

A backend owns *where* trials run; the executor owns everything else
(cache lookups, per-point assembly, progress, cache stores).  The contract
is a submit/drain lifecycle over single trials::

    backend.submit_trials(tasks)          # TrialTask = (point_index, point, trial)
    for result in backend.drain_results():  # TrialResult, completion order
        ...
    backend.cancel()  # on interrupt: undrained already-finished results
    backend.close()

:class:`LocalBackend` is the one implementation: trials run in this
process, in submit order, when one worker suffices, and fan out over a
``concurrent.futures.ProcessPoolExecutor`` otherwise.  Every trial funnels
into the same deterministic entry point
(:func:`repro.sweep.executor._execute_point_trial`, seeded by spawn
position), so the worker count is a pure performance knob, bit-identical
for every ``jobs`` setting and deliberately excluded from sweep cache keys.
Tests substitute a fake by passing any object with these four methods as
``ParallelExecutor(backend=...)``.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .trial import TrialMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .spec import SweepPoint

__all__ = ["LocalBackend", "TrialResult", "TrialTask"]


@dataclass(frozen=True)
class TrialTask:
    """One unit of work: the sweep-point position, the point, the trial."""

    point_index: int
    point: "SweepPoint"
    trial_index: int


@dataclass(frozen=True)
class TrialResult:
    """One finished unit of work, routed back to its sweep-point slot."""

    point_index: int
    trial_index: int
    metrics: TrialMetrics


def _run_trial(task: TrialTask) -> TrialResult:
    from .executor import _execute_point_trial  # runtime-only: avoids a cycle

    return TrialResult(
        point_index=task.point_index,
        trial_index=task.trial_index,
        metrics=_execute_point_trial(task.point, task.trial_index),
    )


class LocalBackend:
    """Trials on this host: in-process for one worker, else a process pool.

    The pool gets ``min(jobs, trials submitted)`` workers, since under the
    ``fork`` start method it launches all of them up front; when that is
    one, trials run in-process in submit order with no pool at all.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        #: Worker count of the current submission (1 = in-process).
        self.workers = 1
        self._tasks: list[TrialTask] = []
        self._pool: ProcessPoolExecutor | None = None
        self._pending: set[Future] = set()

    def submit_trials(self, tasks: Sequence[TrialTask]) -> None:
        self.workers = max(1, min(self.jobs, len(tasks)))
        if self.workers == 1:
            self._tasks = list(tasks)
            return
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._pending = {self._pool.submit(_run_trial, task) for task in tasks}

    def drain_results(self) -> Iterator[TrialResult]:
        while self._tasks:
            yield _run_trial(self._tasks.pop(0))
        while self._pending:
            done, _ = wait(self._pending, return_when=FIRST_COMPLETED)
            for future in done:
                # A future leaves the pending set only once yielded, so an
                # interrupt mid-batch still finds the rest for cancel().
                self._pending.discard(future)
                yield future.result()

    def cancel(self) -> list[TrialResult]:
        """Harvest the trials that already finished, then stop the rest.

        Finished results are handed back so the executor can flush the
        points they complete to the cache; the workers still running
        abandoned trials are killed by :meth:`close`.
        """
        harvested = [
            future.result()
            for future in self._pending
            if future.done() and not future.cancelled() and future.exception() is None
        ]
        self.close()
        return harvested

    def close(self) -> None:
        """Release the pool; no worker is alive when this returns.

        ``shutdown(cancel_futures=True)`` neither stops running workers nor
        cancels the trials already in the pool's call queue, so with work
        outstanding the workers are killed first.  The pool's manager
        thread then sees them die, fails what is left, and exits, which
        ``shutdown(wait=True)`` joins.
        """
        self._tasks.clear()
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if any(not future.done() for future in self._pending):
            for process in list((pool._processes or {}).values()):
                process.kill()
        self._pending = set()
        pool.shutdown(wait=True, cancel_futures=True)
