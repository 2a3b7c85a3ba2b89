"""Deadline assignment (paper Section VI-B).

For a task *i* of type *f* arriving at ``arr_i`` the deadline is

    delta_i = arr_i + avg_f + beta * avg_all

where ``avg_f`` is the mean execution time of the task's type across all
machines, ``avg_all`` is the mean execution time across all task types and
machines, and ``beta`` is the slack coefficient that gives tasks a chance of
completing in an oversubscribed system.
"""

from __future__ import annotations

from ..pet.matrix import PETMatrix

__all__ = ["DeadlineModel"]


class DeadlineModel:
    """Callable deadline assigner with cached PET means.

    Caching ``avg_f`` / ``avg_all`` keeps workload generation O(tasks) even
    for large traces.
    """

    def __init__(self, pet: PETMatrix, *, beta: float = 1.0) -> None:
        if beta < 0:
            raise ValueError("slack coefficient beta must be non-negative")
        self._beta = float(beta)
        self._avg_all = pet.overall_mean()
        self._avg_types = [pet.task_type_mean(t) for t in range(pet.num_task_types)]

    @property
    def beta(self) -> float:
        return self._beta

    def __call__(self, arrival: int, task_type: int) -> int:
        if not 0 <= task_type < len(self._avg_types):
            raise IndexError(f"task type index {task_type} out of range")
        deadline = arrival + self._avg_types[task_type] + self._beta * self._avg_all
        return int(round(deadline))
