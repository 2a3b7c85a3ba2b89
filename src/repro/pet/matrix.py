"""The Probabilistic Execution Time (PET) matrix (paper Section III).

A PET matrix holds one execution-time PMF per (task type, machine type)
pair.  The resource-allocation system is assumed to have this matrix
available (built offline from historical executions); all heuristics and the
pruning mechanism read from it, and the simulator's execution oracle samples
actual runtimes from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..core.batch import CDFTable
from ..core.pmf import DiscretePMF

__all__ = ["PETMatrix"]


@dataclass
class PETMatrix:
    """Task-type x machine-type matrix of execution-time PMFs.

    Parameters
    ----------
    task_types:
        Names of the task types (rows).
    machine_names:
        Names of the machine types (columns).
    pmfs:
        ``pmfs[t][m]`` is the execution-time PMF of task type ``t`` on
        machine ``m``.
    """

    task_types: tuple[str, ...]
    machine_names: tuple[str, ...]
    pmfs: tuple[tuple[DiscretePMF, ...], ...]
    _mean_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cdf_cache: CDFTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.task_types = tuple(self.task_types)
        self.machine_names = tuple(self.machine_names)
        pmfs = tuple(tuple(row) for row in self.pmfs)
        if len(pmfs) != len(self.task_types):
            raise ValueError(
                f"expected {len(self.task_types)} PMF rows, got {len(pmfs)}"
            )
        for name, row in zip(self.task_types, pmfs):
            if len(row) != len(self.machine_names):
                raise ValueError(
                    f"task type {name!r}: expected {len(self.machine_names)} PMFs, got {len(row)}"
                )
            for pmf in row:
                if not isinstance(pmf, DiscretePMF):
                    raise TypeError("PET entries must be DiscretePMF instances")
                if not pmf.is_normalised(tol=1e-6):
                    raise ValueError("PET entries must be proper (unit-mass) PMFs")
        self.pmfs = pmfs

    # ------------------------------------------------------------------
    @property
    def num_task_types(self) -> int:
        return len(self.task_types)

    @property
    def num_machines(self) -> int:
        return len(self.machine_names)

    def task_type_index(self, task_type: str) -> int:
        try:
            return self.task_types.index(task_type)
        except ValueError as exc:
            raise KeyError(f"unknown task type {task_type!r}") from exc

    def machine_index(self, machine_name: str) -> int:
        try:
            return self.machine_names.index(machine_name)
        except ValueError as exc:
            raise KeyError(f"unknown machine {machine_name!r}") from exc

    def get(self, task_type: int | str, machine: int | str) -> DiscretePMF:
        """Execution-time PMF of ``task_type`` on ``machine`` (by index or name)."""
        t = task_type if isinstance(task_type, int) else self.task_type_index(task_type)
        m = machine if isinstance(machine, int) else self.machine_index(machine)
        if not 0 <= t < self.num_task_types:
            raise IndexError(f"task type index {t} out of range")
        if not 0 <= m < self.num_machines:
            raise IndexError(f"machine index {m} out of range")
        return self.pmfs[t][m]

    # ------------------------------------------------------------------
    def mean_execution_times(self) -> np.ndarray:
        """``(num_task_types, num_machines)`` array of PMF means (cached)."""
        if self._mean_cache is None:
            means = np.array(
                [[pmf.mean() for pmf in row] for row in self.pmfs], dtype=np.float64
            )
            self._mean_cache = means
        return self._mean_cache

    def cdf_table(self) -> CDFTable:
        """Execution-time CDFs of every entry, for the batched scorer.

        Returns
        -------
        CDFTable
            Every (type, machine) entry's CDF back to back in one flat
            read-only array, built once and cached (an entry stored whole
            there is its PMF's ``cumulative()`` too) —
            :class:`~repro.heuristics.base.ScoreTable` hands it to
            :func:`repro.core.batch.packed_success_probability` at every
            mapping event.
        """
        if self._cdf_cache is None:
            self._cdf_cache = CDFTable.from_grid(self.pmfs)
        return self._cdf_cache

    def task_type_mean(self, task_type: int | str) -> float:
        """Mean execution time of a task type averaged over all machines.

        This is ``avg_i`` in the deadline formula of Section VI-B.
        """
        t = task_type if isinstance(task_type, int) else self.task_type_index(task_type)
        return float(self.mean_execution_times()[t, :].mean())

    def overall_mean(self) -> float:
        """Mean execution time over all task types and machines (``avg_all``)."""
        return float(self.mean_execution_times().mean())

    def is_inconsistently_heterogeneous(self) -> bool:
        """True when no single machine is fastest for every task type."""
        means = self.mean_execution_times()
        best_machine = means.argmin(axis=1)
        return len(set(best_machine.tolist())) > 1
