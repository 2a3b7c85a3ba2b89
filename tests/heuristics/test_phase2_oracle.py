"""Phase 2 against the tuple-key selection it replaced, on forced ties.

Each heuristic's phase 2 once built one pair object per candidate and
took ``min``/``max`` of a tuple key (MOC: a sort, then a permutation search
over the top pairs).  Those keys are copied below as the oracle; every
heuristic must pick the same row on generated candidate sets whose
completions, mean executions and robustness values collide on purpose,
with ``inf`` completions and (for MMU) completions at or past the deadline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.registry import HEURISTIC_NAMES, make_heuristic
from repro.simulator.task import Task
from repro.workload.spec import TaskSpec

INF = float("inf")


@dataclass
class OldPair:
    """The per-candidate object phase 2 once built."""

    task: Task
    machine_index: int
    expected_completion: float
    robustness: float
    mean_execution: float


def old_urgency(deadline, expected_completion_time):
    gap = float(deadline) - float(expected_completion_time)
    if gap <= 0:
        return float("inf")
    return 1.0 / gap


def oracle_moc(pairs, depth=3):
    top = sorted(pairs, key=lambda p: (-p.robustness, p.expected_completion, p.task.task_id))
    top = top[:depth]
    if len(top) == 1:
        return top[0]
    best_order, best_score = None, float("-inf")
    for order in itertools.permutations(top):
        used: dict[int, int] = {}
        score = 0.0
        for pair in order:
            depth_on = used.get(pair.machine_index, 0)
            score += pair.robustness / (depth_on + 1)
            used[pair.machine_index] = depth_on + 1
        if score > best_score:
            best_score, best_order = score, order
    return best_order[0]


def min_min(pairs):
    return min(pairs, key=lambda p: (p.expected_completion, p.mean_execution, p.task.task_id))


#: The selections as they were, by heuristic name.
ORACLE = {
    "PAM": min_min,
    "PAMF": min_min,
    "MM": min_min,
    "MSD": lambda pairs: min(
        pairs, key=lambda p: (p.task.deadline, p.expected_completion, p.task.task_id)
    ),
    "MMU": lambda pairs: max(
        pairs,
        key=lambda p: (
            old_urgency(p.task.deadline, p.expected_completion),
            -p.expected_completion,
            -p.task.task_id,
        ),
    ),
    "MOC": oracle_moc,
}


@st.composite
def candidate_sets(draw):
    """A score table's arrays and the phase-2 candidates (rows, machines) over it."""
    n_slots = draw(st.integers(1, 9))
    m = draw(st.integers(1, 4))
    rows = np.array(sorted(draw(st.sets(st.integers(0, n_slots - 1), min_size=1))))
    machines = np.array([draw(st.integers(0, m - 1)) for _ in rows.tolist()], dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Unrelated values everywhere but the candidates' own cells.
    completion = rng.random((n_slots, m)) * 100
    mean_execution = rng.random((n_slots, m)) * 10
    robustness = rng.random((n_slots, m))
    # Few distinct values, so every key level ties.
    completion[rows, machines] = [
        draw(st.sampled_from([4.0, 7.5, 7.5, 10.0, 12.0, INF])) for _ in rows.tolist()
    ]
    mean_execution[rows, machines] = [draw(st.sampled_from([2.0, 3.5])) for _ in rows.tolist()]
    robustness[rows, machines] = [
        draw(st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.9, 1.0])) for _ in rows.tolist()
    ]
    deadlines = np.array([draw(st.sampled_from([4, 8, 10, 12, 30])) for _ in range(n_slots)])
    task_ids = np.array(draw(st.permutations(range(100, 100 + n_slots))), dtype=np.int64)
    tasks = [
        Task(TaskSpec(arrival=0, task_id=int(task_id), task_type=0, deadline=int(deadline)))
        for task_id, deadline in zip(task_ids.tolist(), deadlines.tolist())
    ]
    table = SimpleNamespace(
        tasks=tasks,
        task_ids=task_ids,
        deadlines=deadlines,
        completion=completion,
        mean_execution=mean_execution,
        robustness=robustness,
    )
    return table, rows, machines


def oracle_row(name, table, rows, machines) -> int:
    pairs = [
        OldPair(
            task=table.tasks[row],
            machine_index=machine,
            expected_completion=float(table.completion[row, machine]),
            robustness=float(table.robustness[row, machine]),
            mean_execution=float(table.mean_execution[row, machine]),
        )
        for row, machine in zip(rows.tolist(), machines.tolist())
    ]
    chosen = ORACLE[name](pairs)
    return next(row for row in rows.tolist() if table.tasks[row] is chosen.task)


def picked_row(heuristic, table, rows, machines) -> int:
    return int(rows[heuristic.phase2_pick(table, rows, machines)])


@settings(max_examples=300, deadline=None)
@given(case=candidate_sets())
def test_every_heuristic_picks_the_oracle_row(case):
    table, rows, machines = case
    for name in HEURISTIC_NAMES:
        heuristic = make_heuristic(name, num_task_types=1)
        assert picked_row(heuristic, table, rows, machines) == oracle_row(
            name, table, rows, machines
        ), name
