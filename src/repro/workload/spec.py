"""Task specifications produced by the workload generator.

A :class:`TaskSpec` is the immutable description of one arriving task: its
type, arrival time and hard deadline.  The simulator wraps each spec in a
mutable runtime :class:`repro.simulator.task.Task`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TaskSpec", "integral_field"]

#: A task field is a signed 64-bit integer, the widest the engine's arrays hold.
_FIELD_MIN, _FIELD_MAX = -(2**63), 2**63 - 1


def integral_field(value: object, name: str) -> int:
    """``value`` as an exact integer, or a ``ValueError`` naming ``name``.

    An ``int`` is taken as is — never through ``float``, so no digit above
    2**53 is lost — and a ``float`` only when finite and integral.  ``bool``,
    every other type and any value outside the signed 64-bit range are
    refused.  Shared by the recorded-trace loader and the service's
    ``submit`` validation, so both accept exactly the same task records.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite ({value!r})")
        if not value.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not _FIELD_MIN <= value <= _FIELD_MAX:
        raise ValueError(f"{name} is outside the signed 64-bit integer range")
    return value


@dataclass(frozen=True, order=True, slots=True)
class TaskSpec:
    """One arriving task, as generated offline by the workload model."""

    #: Arrival time in integer time units (sort key — traces are time ordered).
    arrival: int
    #: Unique, monotonically increasing task identifier.
    task_id: int
    #: Index of the task type in the PET matrix.
    task_type: int
    #: Hard deadline; a task finishing after this instant has no value.
    deadline: int

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival time must be non-negative")
        if self.deadline <= self.arrival:
            raise ValueError("deadline must be strictly after arrival")
        if self.task_type < 0:
            raise ValueError("task type index must be non-negative")

    @property
    def slack(self) -> int:
        """Time between arrival and deadline."""
        return self.deadline - self.arrival
