"""The impulse-native kernels against the forms they replaced, at atol=0.

Two kernels sit under every mapping event, and both were re-cut to do their
work once, on impulses:

* **scoring** — ``packed_success_probability`` sums Eq. 1 over each
  machine's *own* impulses (a packed ``(m, K)`` operand), as a grid or as a
  pair list.  Before, every pair walked the union of all co-batched
  machines' non-zero start columns.  That body lives on here as the
  reference (``union_grid``): the packed grid, the pair list in any order
  and the reference model's Eq. 1 (``tests/reference/pmf.py``) must all
  equal it bit for bit — on every scoring call recorded from two real
  trials and on generated operands with ragged impulse counts.
* **the chain step** — ``completion_step`` computes Eqs. 2-5, the impulse
  cap, the task's success probability and its pre-cap completion PMF from
  one convolution.  Before, the completion PMF's ``aggregate(cap)``
  produced the availability and a *second* convolution the probability and
  the skewness; both are rebuilt here from the PMF primitives (``old_*``)
  and must agree with the step bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    CDFTable,
    PMFBatch,
    batched_success_probability,
    pack_batch,
    pack_impulses,
    packed_success_probability,
    sequential_sum,
)
from repro.core.completion import DroppingPolicy, chain_step, completion_step
from repro.core.pmf import DiscretePMF
from repro.heuristics.base import ScoreTable
from repro.heuristics.registry import make_heuristic
from repro.pet.builders import build_spec_pet, build_transcoding_pet
from repro.simulator.engine import HCSimulator
from repro.workload.traces import load_trace

from reference import pmf as model

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "transcoding_660.trace.json"
)


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def union_grid(availabilities, grid_pmfs, type_indices, deadlines, machine_indices):
    """``batched_success_probability`` as it was: the union of start columns,
    read from every pair's execution CDF on a padded grid of its own."""
    availability = PMFBatch.from_pmfs(availabilities)
    n_tasks, n_machines = type_indices.size, machine_indices.size
    result = np.zeros((n_tasks, n_machines), dtype=np.float64)
    columns = np.flatnonzero(availability.probs.any(axis=0))
    if n_tasks == 0 or columns.size == 0:
        return result
    start_times = availability.offset + columns
    start_probs = availability.probs[:, columns]
    pmfs = [
        [grid_pmfs(t, m) for m in machine_indices.tolist()] for t in type_indices.tolist()
    ]
    exec_offsets = np.array([[pmf.offset for pmf in row] for row in pmfs], dtype=np.int64)
    exec_lengths = np.array([[pmf.probs.size for pmf in row] for row in pmfs], dtype=np.int64)
    cdfs = np.zeros((n_tasks, n_machines, int(exec_lengths.max())), dtype=np.float64)
    for i, row in enumerate(pmfs):
        for j, pmf in enumerate(row):
            cdfs[i, j, : pmf.probs.size] = pmf.cumulative()
    budgets = (
        deadlines[:, None, None] - start_times[None, None, :] - exec_offsets[:, :, None]
    )
    clipped = np.minimum(budgets, (exec_lengths - 1)[:, :, None])
    usable = (start_times[None, None, :] < deadlines[:, None, None]) & (clipped >= 0)
    gathered = np.take_along_axis(cdfs, np.maximum(clipped, 0), axis=2)
    contributions = np.where(usable, gathered, 0.0) * start_probs[None, :, :]
    return np.minimum(1.0, sequential_sum(contributions, axis=-1))


def assert_every_form_agrees(availabilities, grid_pmfs, execution, types, deadlines, machines, rng):
    """Packed grid == union grid == permuted pair list == the model, per pair."""
    want = union_grid(availabilities, grid_pmfs, types, deadlines, machines)
    packed = pack_impulses(availabilities)
    assert np.array_equal(
        packed_success_probability(*packed, execution, types, deadlines, machines), want
    )
    assert np.array_equal(
        batched_success_probability(
            PMFBatch.from_pmfs(availabilities), execution, types, deadlines, machines
        ),
        want,
    )
    rows, slots = np.nonzero(np.ones(want.shape, dtype=bool))
    order = rng.permutation(rows.size)[: max(1, rows.size * 2 // 3)]
    listed = packed_success_probability(
        *packed, execution, types, deadlines, machines, pairs=(rows[order], slots[order])
    )
    assert np.array_equal(listed, want[rows[order], slots[order]])
    for row, slot in zip(rows[order].tolist(), slots[order].tolist()):
        scalar = model.success_probability(
            grid_pmfs(int(types[row]), int(machines[slot])).to_impulses(),
            availabilities[slot].to_impulses(),
            int(deadlines[row]),
        )
        assert scalar == want[row, slot]


@pytest.fixture(scope="module")
def recorded_scoring(oversub_inputs):
    """Every ``ScoreTable._score`` call of two real trials, with what it stored.

    A 200-task prefix of the reference trace (idle machines, short chains)
    and the 600-task load-3.0 scale trace (capped chains next to
    un-aggregated executing anchors, nearly every fill a few new pairs).
    Per call: the distinct columns it scored (their availability objects
    and PET columns), every slot's type and deadline, the pair list as
    ``(slots, positions among those columns)`` and the scores the table
    kept for it.
    """
    reference_pet = build_transcoding_pet(rng=2019)
    trace = load_trace(REFERENCE_TRACE)
    runs = [
        (reference_pet, type(trace)(trace.tasks[:200], trace.config), 2021),
        (*oversub_inputs, 2019),
    ]
    calls: list[tuple] = []
    running: list = []  # the PET of the trial in progress
    score = ScoreTable._score

    def recording_score(self, rows, columns):
        score(self, rows, columns)
        machines, positions = np.unique(columns, return_inverse=True)
        calls.append(
            (
                running[-1],
                [self._scored_against[j] for j in machines.tolist()],
                self.types[: self.n].copy(),
                self.deadlines[: self.n].copy(),
                machines,
                (rows, positions),
                self.robustness[rows, columns],
            )
        )

    ScoreTable._score = recording_score
    try:
        for pet, run_trace, seed in runs:
            running.append(pet)
            heuristic = make_heuristic("PAMF", num_task_types=pet.num_task_types)
            HCSimulator(pet, heuristic, rng=seed).run(run_trace)
    finally:
        ScoreTable._score = score
    return calls


def test_recorded_scoring_calls_agree_in_every_form(recorded_scoring):
    rng = np.random.default_rng(0)
    assert len(recorded_scoring) >= 1000
    widths = [max(a.nonzero_count() for a in availabilities) for _, availabilities, *_ in recorded_scoring]
    assert min(widths) == 1 and max(widths) > 100
    for pet, availabilities, types, deadlines, machines, pairs, stored in recorded_scoring:
        assert_every_form_agrees(
            availabilities, pet.get, pet.cdf_table(), types, deadlines, machines, rng
        )
        # What the table kept from its own call — a packed operand with
        # one row per machine, stale impulses past each row's width carrying
        # probability 0 — is the union grid at the listed pairs.
        want = union_grid(availabilities, pet.get, types, deadlines, machines)
        assert np.array_equal(stored, want[pairs])


@st.composite
def availability_strategy(draw):
    """An availability of one of the shapes a mapping event packs together."""
    kind = draw(st.sampled_from(["idle", "capped", "anchor", "zero"]))
    start = draw(st.integers(0, 60))
    if kind == "idle":
        return DiscretePMF.point(start)
    if kind == "zero":
        return DiscretePMF._raw(np.zeros(draw(st.integers(1, 5))), start)
    count = draw(st.integers(2, 32) if kind == "capped" else st.integers(101, 140))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    width = count + int(rng.integers(0, 2 * count))
    probs = np.zeros(width)
    probs[rng.choice(width, size=count, replace=False)] = rng.random(count) + 0.01
    probs *= draw(st.sampled_from([1.0, 0.6])) / probs.sum()
    return DiscretePMF._raw(probs, start)


@st.composite
def ragged_scoring_case(draw):
    n_machines = draw(st.integers(1, 5))
    n_types = draw(st.integers(1, 3))
    availabilities = [draw(availability_strategy()) for _ in range(n_machines)]
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    grid = []
    for _ in range(n_types):
        row = []
        for _ in range(n_machines):
            width = int(rng.integers(1, 40))
            probs = rng.random(width) * (rng.random(width) < 0.7)
            probs[int(rng.integers(0, width))] += 0.1
            # Offsets 0 and below: a start at the deadline reads no CDF.
            offset = int(rng.choice([-2, 0, 1, int(rng.integers(1, 30))]))
            row.append(DiscretePMF(probs / probs.sum(), offset=offset))
        grid.append(row)
    n_tasks = draw(st.integers(1, 6))
    types = np.array(draw(st.lists(st.integers(0, n_types - 1), min_size=n_tasks, max_size=n_tasks)))
    # Budgets below 0 (before every start), at the offset-0/1 boundary,
    # inside the support, and far beyond every CDF's last bin.
    deadlines = np.array(
        draw(
            st.lists(
                st.sampled_from([0, 1, 2, 15, 40, 90, 200, 10_000]),
                min_size=n_tasks,
                max_size=n_tasks,
            )
        )
    )
    return availabilities, grid, types, deadlines, rng


@settings(max_examples=80, deadline=None)
@given(case=ragged_scoring_case())
def test_ragged_operands_agree_in_every_form(case):
    availabilities, grid, types, deadlines, rng = case
    machines = rng.permutation(len(availabilities))  # operand row j is PET column machines[j]
    assert_every_form_agrees(
        availabilities,
        lambda task_type, machine: grid[task_type][machine],
        CDFTable.from_grid(grid),
        types,
        deadlines,
        machines,
        rng,
    )


def test_cdf_table_layout_leading_zero_and_lower_bound():
    """Each entry's CDF from ``max(0, 1 - offset)`` on, behind one leading 0.0."""
    grid = [
        [
            DiscretePMF.from_impulses({-2: 1.0}),  # lower bound past the last bin
            DiscretePMF.from_impulses({0: 0.25, 2: 0.75}),  # mass at a start == deadline
            DiscretePMF.from_impulses({1: 0.5, 3: 0.5}),
            DiscretePMF.from_impulses({5: 0.5, 6: 0.25, 9: 0.25}),
        ]
    ]
    table = CDFTable.from_grid(grid)
    for m, pmf in enumerate(grid[0]):
        shift, first, end = table.entries[m].tolist()
        cdf, last = pmf.cumulative(), pmf.probs.size - 1
        lower = max(0, 1 - pmf.offset)
        assert table.flat[first] == 0.0
        for budget in range(-3, last + 5):
            deadline = pmf.offset + budget  # a start at 0
            lookup = table.flat[min(max(deadline - shift, first), end)]
            assert lookup == (cdf[min(budget, last)] if budget >= lower else 0.0)
    # An entry at offset 0 with mass at 0 still reads 0.0 for a start at
    # the deadline (budget 0), and its first CDF value for budget 1.
    shift, first, end = table.entries[1].tolist()
    assert table.flat[first + 1] == grid[0][1].cumulative()[1]
    # The segments follow one another with no padding: each is span + 1
    # values long, its budgets lower..max(last, lower) behind the zero.
    spans = []
    for m, pmf in enumerate(grid[0]):
        shift, first, end = table.entries[m].tolist()
        cdf, last = pmf.cumulative(), pmf.probs.size - 1
        lower = max(0, 1 - pmf.offset)
        spans.append(max(last, lower) - lower + 1)
        assert first == sum(span + 1 for span in spans[:-1]) and end == first + spans[-1]
        segment = [cdf[min(budget, last)] for budget in range(lower, lower + spans[-1])]
        assert table.flat[first : end + 1].tolist() == [0.0, *segment]
    assert table.flat.size == sum(span + 1 for span in spans)
    # With no lower bound (offset >= 1) a segment is the entry's whole CDF
    # behind its zero.
    later = CDFTable.from_grid([grid[0][2:]])
    for m, pmf in enumerate(grid[0][2:]):
        shift, first, end = later.entries[m].tolist()
        assert later.flat[first : end + 1].tolist() == [0.0, *pmf.cumulative().tolist()]
    assert later.flat.size == sum(pmf.probs.size + 1 for pmf in grid[0][2:])
    # Only those entries' PMFs read their CDF from the table; one with a
    # lower bound stores part of its CDF there and keeps its own copy.
    for pmf in grid[0]:
        shared = np.shares_memory(pmf.cumulative(), later.flat)
        assert shared == (pmf.offset >= 1)
        assert pmf.cumulative().tobytes() == pmf.probs.cumsum().tobytes()


def test_spec_pet_cdf_table_holds_no_padding():
    """The spec PET's entries differ in width (780 bins against a median of
    198 at seed 2019): padded to the widest, ``flat`` took 599,808 bytes."""
    pet = build_spec_pet(rng=2019)
    size = 0
    for pmf in (pmf for row in pet.pmfs for pmf in row):
        lower = max(0, 1 - pmf.offset)
        size += 1 + max(pmf.probs.size - 1, lower) - lower + 1  # zero, then span
    flat = pet.cdf_table().flat
    assert flat.size == size
    assert flat.nbytes <= 200_000


def test_spec_pet_keeps_each_cdf_once():
    """Every spec-PET offset is at least 2, so each entry's segment of
    ``flat`` is its whole CDF, and the PMF's ``cumulative()`` reads it there
    (read-only) instead of holding a second copy: 174,784 bytes at seed
    2019."""
    pet = build_spec_pet(rng=2019)
    flat = pet.cdf_table().flat
    for pmf in (pmf for row in pet.pmfs for pmf in row):
        cdf = pmf.cumulative()
        assert np.shares_memory(cdf, flat) and not cdf.flags.writeable
        assert cdf.tobytes() == pmf.probs.cumsum().tobytes()


@st.composite
def unequal_width_grid(draw):
    """A PET grid whose entries differ wildly in width: single-bin entries
    next to wide ones, at offsets from well below 0 (so ``lower > 0``, and
    sometimes past the last bin) to well above it."""
    n_types, n_machines = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    grid = []
    for _ in range(n_types):
        row = []
        for _ in range(n_machines):
            width = int(rng.choice([1, 1, 2, int(rng.integers(100, 400))]))
            probs = rng.random(width) + 0.01
            offset = int(rng.choice([-(width + 3), -int(rng.integers(0, width)), 0, 1, 25]))
            row.append(DiscretePMF(probs / probs.sum(), offset=offset))
        grid.append(row)
    return grid


@settings(max_examples=60, deadline=None)
@given(
    grid=unequal_width_grid(),
    availabilities=st.lists(availability_strategy(), min_size=4, max_size=4),
    deadlines=st.lists(st.integers(-10, 700), min_size=1, max_size=5),
    seed=st.integers(0, 2**31),
)
def test_back_to_back_table_scores_equal_the_model(grid, availabilities, deadlines, seed):
    rng = np.random.default_rng(seed)
    n_types, n_machines = len(grid), len(grid[0])
    availabilities = availabilities[:n_machines]
    types = rng.integers(0, n_types, len(deadlines))
    deadlines = np.array(deadlines, dtype=np.int64)
    got = packed_success_probability(
        *pack_impulses(availabilities), CDFTable.from_grid(grid), types, deadlines
    )
    for row, (task_type, deadline) in enumerate(zip(types.tolist(), deadlines.tolist())):
        for machine, availability in enumerate(availabilities):
            scalar = model.success_probability(
                grid[task_type][machine].to_impulses(), availability.to_impulses(), deadline
            )
            assert got[row, machine] == scalar


def test_packing_a_batch_equals_packing_its_pmfs():
    pmfs = [
        DiscretePMF.from_impulses({3: 0.25, 9: 0.5, 10: 0.25}),
        DiscretePMF.point(7),
        DiscretePMF._raw(np.zeros(4), 5),
        DiscretePMF.from_impulses({0: 0.5, 30: 0.5}),
    ]
    times, probs = pack_impulses(pmfs)
    batch_times, batch_probs = pack_batch(PMFBatch.from_pmfs(pmfs))
    assert times.shape == (4, 3)
    assert np.array_equal(probs, batch_probs)
    assert np.array_equal(times[probs > 0], batch_times[probs > 0])
    assert pmfs[0].impulses() is pmfs[0].impulses()  # cached on the immutable PMF


# ----------------------------------------------------------------------
# The chain step
# ----------------------------------------------------------------------
def old_completion_and_success(pet, prev, deadline, policy):
    """Eqs. 2-5 as they were composed from the PMF primitives."""
    if policy is DroppingPolicy.NONE:
        ran = pet.convolve(prev)
        return ran.compact(), float(min(1.0, ran.cdf(deadline)))
    started = prev.truncate_before(deadline)
    ran = DiscretePMF.zero() if started.is_zero() else pet.convolve(started)
    prob = float(min(1.0, ran.cdf(deadline)))
    if policy is DroppingPolicy.EVICT:
        ran = ran.collapse_tail_to(deadline)
    dropped = prev.truncate_from(deadline)
    return (ran if dropped.is_zero() else ran.add(dropped)).compact(), prob


def old_chain_step(pet, prev, deadline, policy, max_impulses):
    out, _ = old_completion_and_success(pet, prev, deadline, policy)
    return out if max_impulses is None else out.aggregate(max_impulses)


def same_pmf(a: DiscretePMF, b: DiscretePMF) -> bool:
    return a.offset == b.offset and np.array_equal(a.probs, b.probs)


def assert_step_equals_the_old_forms(pet, prev, deadline):
    for policy in DroppingPolicy:
        want_pct, want_prob = old_completion_and_success(pet, prev, deadline, policy)
        for cap in (None, 1, 32):
            step = completion_step(pet, prev, deadline, policy, cap)
            assert same_pmf(step.availability, old_chain_step(pet, prev, deadline, policy, cap))
            assert same_pmf(step.completion, want_pct)
            assert step.success_probability == want_prob
            assert step.completion.bounded_skewness() == want_pct.bounded_skewness()
            assert same_pmf(chain_step(pet, prev, deadline, policy, cap), step.availability)


def random_operand(rng, *, dense: bool, mass: float = 1.0) -> DiscretePMF:
    size = int(rng.integers(1, 150))
    count = int(rng.integers(max(1, size // 2), size + 1)) if dense else int(rng.integers(1, min(size, 9) + 1))
    probs = np.zeros(size)
    probs[rng.choice(size, size=count, replace=False)] = rng.random(count) + 1e-3
    probs *= mass / probs.sum()
    return DiscretePMF._raw(probs, int(rng.integers(-20, 200)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dense_prev=st.booleans(),
    dense_pet=st.booleans(),
    prev_mass=st.sampled_from([1.0, 0.4, 3e-9, 5e-10, 0.0]),
    where=st.sampled_from(["before", "inside", "inside", "after"]),
)
def test_step_equals_the_old_two_convolution_forms(seed, dense_prev, dense_pet, prev_mass, where):
    rng = np.random.default_rng(seed)
    pet = random_operand(rng, dense=dense_pet, mass=float(rng.choice([1.0, 1.0, 0.3])))
    prev = random_operand(rng, dense=dense_prev)
    if prev_mass != 1.0:
        prev = DiscretePMF._raw(prev.probs * prev_mass, prev.offset)
    end = prev.max_time + pet.max_time
    # Only the chosen case draws: a PET with negative times can end the
    # chain before ``prev`` starts, leaving "inside" just ``prev.offset``.
    deadline = {
        "before": lambda: prev.offset - int(rng.integers(0, 10)),  # cut <= 0: never starts
        "inside": lambda: int(rng.integers(prev.offset, max(prev.offset, end) + 1)),
        "after": lambda: end + int(rng.integers(1, 10)),  # cut >= size: nothing dropped or collapsed
    }[where]()
    assert_step_equals_the_old_forms(pet, prev, deadline)


def test_step_edge_cases_equal_the_old_forms():
    pet = DiscretePMF.from_impulses({2: 0.5, 3: 0.25, 6: 0.25})
    prev = DiscretePMF.from_impulses({10: 0.5, 12: 0.25, 20: 0.25})
    for deadline in (9, 10, 11, 13, 14, 16, 18, 20, 21, 26, 27, 40):
        assert_step_equals_the_old_forms(pet, prev, deadline)
    # The collapsed tail is below the mass tolerance: it is dropped, not kept.
    thin_tail = DiscretePMF._raw(np.array([0.5, 0.5 - 2e-10, 0.0, 0.0, 2e-10]), 1)
    assert_step_equals_the_old_forms(thin_tail, DiscretePMF.point(10), 13)
    # Zero-mass operands keep the scalar algebra's conventions, offsets included.
    for zero in (DiscretePMF.zero(), DiscretePMF._raw(np.zeros(3), 7)):
        assert_step_equals_the_old_forms(pet, zero, 15)
        assert_step_equals_the_old_forms(zero, prev, 15)
    # A started branch whose product underflows the tolerance (Eq. 5 only).
    assert_step_equals_the_old_forms(
        DiscretePMF._raw(pet.probs * 0.1, pet.offset),
        DiscretePMF._raw(np.array([2e-9, 0.0, 0.9]), 10),
        11,
    )
