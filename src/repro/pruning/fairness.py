"""Fairness across task types via sufferage values (paper Section V-D2).

Probabilistic pruning tends to favour task types with short execution times.
PAMF counteracts this with a per-task-type *sufferage* value ``epsilon`` that
relaxes (lowers) the pruning thresholds of types that have been missing
deadlines.  On every task completion the sufferage of the task's type is
decreased by the *fairness factor* ``vartheta``; on every unsuccessful task
(miss or drop) it is increased by the same factor.  Sufferage values are kept
in [0, 1] (0 = no sufferage).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..simulator.mapping import TerminalEvent

__all__ = ["SufferageTracker"]


class SufferageTracker:
    """Per-task-type sufferage bookkeeping used by PAMF."""

    def __init__(self, num_task_types: int, fairness_factor: float = 0.05) -> None:
        if num_task_types < 1:
            raise ValueError("at least one task type is required")
        if not 0.0 <= fairness_factor <= 1.0:
            raise ValueError("fairness factor must lie in [0, 1]")
        self.num_task_types = int(num_task_types)
        self.fairness_factor = float(fairness_factor)
        self._sufferage = np.zeros(self.num_task_types, dtype=np.float64)
        #: Bumped by every change of the sufferage values (caches key on it).
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Copy of the current sufferage values (index = task type)."""
        return self._sufferage.copy()

    def sufferage_of(self, task_type: int) -> float:
        if not 0 <= task_type < self.num_task_types:
            raise IndexError(f"task type {task_type} out of range")
        return float(self._sufferage[task_type])

    # ------------------------------------------------------------------
    def record_success(self, task_type: int) -> None:
        """A task of this type completed on time: lower its sufferage."""
        self._update(task_type, -self.fairness_factor)

    def record_failure(self, task_type: int) -> None:
        """A task of this type missed its deadline or was pruned: raise it."""
        self._update(task_type, +self.fairness_factor)

    def observe_terminal_events(self, events: Iterable[TerminalEvent]) -> None:
        """Fold in every terminal event since the previous mapping event."""
        for event in events:
            if event.on_time:
                self.record_success(event.task_type)
            else:
                self.record_failure(event.task_type)

    def _update(self, task_type: int, delta: float) -> None:
        if not 0 <= task_type < self.num_task_types:
            raise IndexError(f"task type {task_type} out of range")
        self._sufferage[task_type] = min(1.0, max(0.0, self._sufferage[task_type] + delta))
        self.version += 1

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._sufferage[:] = 0.0
        self.version += 1
