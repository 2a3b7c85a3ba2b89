"""The global event heap driving the simulator (Firmament-style).

Every occurrence the engine reacts to is one *typed event* in a single
priority queue, patterned after the ``EventManager`` of Firmament's trace
simulator: task arrivals, task finishes (completion or eviction), and
scheduling **round** markers (batched-rounds mode bounds round latency with
them).  An arrival is pushed only once the engine's clock has reached its
instant, so the heap holds the tasks in flight, not the whole trace.

Heap entries are plain ``(time, kind, seq, task_id)`` tuples, not event
objects — a 100k-task trace pushes and pops hundreds of thousands of events
and the per-event Python overhead of materialising an object per event is
measurable.  The tuple order is load-bearing:

* ``time`` — events pop in virtual-time order;
* ``kind`` — at one instant, arrivals pop first, then finishes, then
  round markers;
* ``seq`` — a monotone tie-breaker making the pop order of same-time,
  same-kind events deterministic (push order) without ever comparing task
  payloads.

The relative ``ARRIVAL < FINISH`` order and the per-kind FIFO tie-break are
the pop order of the per-event reference loop (``tests/reference/loop.py``),
which is what keeps the heap loop bit-identical to it at ``batch_window=0``.
"""

from __future__ import annotations

import heapq
import itertools
from enum import IntEnum

__all__ = ["EventKind", "EventManager"]


class EventKind(IntEnum):
    """Event types sharing the global heap (the tuple's second sort key)."""

    #: A task joins the batch queue of unmapped tasks.
    ARRIVAL = 0
    #: The executing task on some machine reaches its finish instant
    #: (completion, or eviction when the deadline cut it short).
    FINISH = 1
    #: Batched-rounds marker: forces an engine step (and therefore a
    #: scheduling round) at its timestamp even if no task event lands there.
    ROUND = 2


class EventManager:
    """Single global event heap with typed entries and a monotone sequence.

    A thin, slotted wrapper over :mod:`heapq`; the engine's inner loop calls
    these methods hundreds of thousands of times per large trace, so every
    method stays a couple of bytecodes away from the raw heap operation.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, int]] = []
        self._seq = itertools.count()

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: int, kind: EventKind, task_id: int = -1) -> None:
        """Schedule one event; ``task_id`` is ``-1`` for task-less kinds."""
        heapq.heappush(self._heap, (int(time), int(kind), next(self._seq), task_id))

    def next_time(self) -> int | None:
        """Timestamp of the earliest pending event (``None`` when empty)."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[int, int, int, int]:
        """Pop the earliest event entry."""
        return heapq.heappop(self._heap)

    def pending_at(self, time: int) -> bool:
        """Whether the head of the heap sits exactly at ``time``."""
        return bool(self._heap) and self._heap[0][0] == time
