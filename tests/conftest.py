"""Shared fixtures: small PMFs, tiny PET matrices and quick workloads.

The full SPEC-style PET (12 types x 8 machines, 500 samples per entry) is
overkill for unit tests; these fixtures build miniature but structurally
identical systems so the whole suite stays fast.  ``scratch_chain`` is the
suite's one from-scratch availability walk, the reference every
``SystemState`` chain is compared against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.completion import DroppingPolicy, chain_step, queue_completion_pmfs
from repro.core.pmf import DiscretePMF
from repro.pet.builders import build_pet_from_means, build_spec_pet
from repro.pet.matrix import PETMatrix
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.scale import ScaleTraceConfig, generate_scale_trace


def walk_from_scratch(
    machine, pet, now, *, policy=DroppingPolicy.EVICT, max_impulses=32
) -> tuple[DiscretePMF, ...]:
    """A machine's completion-time chain walked down its current queue, on
    ``SystemState``'s settings: ``state.chain`` must equal it at atol=0.

    An executing head is anchored on ``executing_anchor_pmf``; an idle
    machine's pending head with ``deadline > now`` starts at ``now``, so its
    step from ``point(now)`` is taken without the impulse cap."""
    tasks, start, head = machine.queued_tasks(), DiscretePMF.point(now), []
    if machine.executing is not None:
        start = machine.executing_anchor_pmf(pet, now, policy=policy)
        tasks, head = tasks[1:], [start]
    elif tasks and tasks[0].deadline > now:
        start = chain_step(
            pet.get(tasks[0].task_type, machine.index), start, tasks[0].deadline, policy
        )
        tasks, head = tasks[1:], [start]
    pets = [pet.get(task.task_type, machine.index) for task in tasks]
    deadlines = [task.deadline for task in tasks]
    chain = queue_completion_pmfs(
        pets, deadlines, start=start, policy=policy, max_impulses=max_impulses
    )
    return tuple(head + chain)


@pytest.fixture(scope="session")
def scratch_chain():
    """:func:`walk_from_scratch`, for tests that take it as a fixture."""
    return walk_from_scratch


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def simple_pmf() -> DiscretePMF:
    """The execution-time PMF used in the paper's Figure 2 example."""
    return DiscretePMF.from_impulses({1: 0.25, 2: 0.50, 3: 0.25})


@pytest.fixture
def fig2_prev_pct() -> DiscretePMF:
    """The predecessor completion-time PMF of the Figure 2 example."""
    return DiscretePMF.from_impulses({3: 0.50, 4: 0.25, 5: 0.25})


def _deterministic_pmf(values: dict[int, float]) -> DiscretePMF:
    return DiscretePMF.from_impulses(values)


@pytest.fixture(scope="session")
def tiny_pet() -> PETMatrix:
    """A 3-task-type x 2-machine PET with hand-written, inconsistent PMFs.

    Machine "fast-a" is best for type "alpha", machine "fast-b" for "beta";
    "gamma" is long everywhere.  Deterministic (no sampling) so tests can
    reason about exact probabilities.
    """
    return PETMatrix(
        ("alpha", "beta", "gamma"),
        ("fast-a", "fast-b"),
        (
            (_deterministic_pmf({4: 0.5, 5: 0.25, 6: 0.25}), _deterministic_pmf({8: 0.5, 10: 0.5})),
            (_deterministic_pmf({9: 0.5, 11: 0.5}), _deterministic_pmf({3: 0.5, 4: 0.25, 5: 0.25})),
            (
                _deterministic_pmf({12: 0.5, 14: 0.25, 16: 0.25}),
                _deterministic_pmf({13: 0.5, 15: 0.25, 17: 0.25}),
            ),
        ),
    )


@pytest.fixture(scope="session")
def small_gamma_pet() -> PETMatrix:
    """A sampled 4-type x 3-machine PET (small but realistic shapes)."""
    means = [
        [20.0, 35.0, 50.0],
        [45.0, 25.0, 60.0],
        [30.0, 40.0, 22.0],
        [55.0, 50.0, 45.0],
    ]
    return build_pet_from_means(
        means,
        task_types=["t0", "t1", "t2", "t3"],
        machine_names=["m0", "m1", "m2"],
        rng=7,
        n_samples=200,
    )


@pytest.fixture
def small_trace(small_gamma_pet):
    """An oversubscribed trace for the small gamma PET (fast to simulate)."""
    config = WorkloadConfig(num_tasks=120, time_span=600, beta=1.5)
    return generate_workload(config, small_gamma_pet, rng=11)


@pytest.fixture
def light_trace(small_gamma_pet):
    """A lightly loaded trace (most tasks should succeed)."""
    config = WorkloadConfig(num_tasks=40, time_span=1500, beta=3.0)
    return generate_workload(config, small_gamma_pet, rng=13)


@pytest.fixture(scope="session")
def oversub_inputs():
    """SPEC PET and a 600-task load-3.0 scale trace: the oversubscribed regime.

    The inputs of the perf ledger's ``trial-oversub`` workload at seed 2019
    (and of the ``scale-oversub/`` decision digests).
    """
    pet = build_spec_pet(rng=2019)
    trace = generate_scale_trace(
        ScaleTraceConfig(num_tasks=600, load_factor=3.0), rng=2019, pet=pet
    )
    return pet, trace
