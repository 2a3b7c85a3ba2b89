"""The reference model of ``tests/reference/pmf.py`` against the engine, at atol=0.

* **Eqs. 2-5 and the cap** — the model's step gives the availability, the
  success probability and the completion PMF of
  :func:`~repro.core.completion.completion_step` under NONE, PENDING and
  EVICT, capped and uncapped: on generated compact operands (both branches
  of the operand rule, sub-normalised and zero-mass predecessors, deadlines
  before, inside and after the chain) and on chain steps of two seeded
  trials, one per dropping regime.
* **Eq. 1 and expected completion** — the model's scorer gives every value
  :func:`~repro.core.batch.packed_success_probability` gives, and the
  model's ``E[availability] + E[execution]`` every completion a
  ``ScoreTable`` keeps (``tests/core/test_impulse_kernels.py`` and
  ``tests/heuristics/test_batched_scoring.py`` compare the model with
  recorded real fills too).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pruning.pruner as pruner_module
import repro.simulator.mapping as mapping_module
import repro.simulator.state as state_module
from repro.core.batch import CDFTable, pack_impulses, packed_success_probability
from repro.core.completion import DroppingPolicy, completion_step
from repro.core.pmf import DiscretePMF
from repro.heuristics.registry import make_heuristic
from repro.pet.builders import build_transcoding_pet
from repro.simulator.engine import HCSimulator, SimulatorConfig
from repro.workload.traces import load_trace

from reference import pmf as model

REFERENCE_TRACE = (
    Path(__file__).resolve().parent.parent.parent / "examples" / "transcoding_660.trace.json"
)


def assert_step_agrees(pet: DiscretePMF, prev: DiscretePMF, deadline: int, policy, cap) -> None:
    step = completion_step(pet, prev, deadline, policy, cap)
    availability, success, completion = model.step(
        model.of(pet), model.of(prev), deadline, policy, cap
    )
    assert step.success_probability == success
    assert model.of(step.completion) == completion
    assert model.of(step.availability) == availability


def compact_operand(rng, *, dense: bool, mass: float) -> DiscretePMF:
    """A PMF with non-zero first and last bins, ``mass`` in total."""
    size = int(rng.integers(1, 150))
    if dense:
        count = int(rng.integers(max(1, size // 2), size + 1))
    else:
        count = int(rng.integers(1, min(size, 9) + 1))
    chosen = {0, size - 1} | set(rng.choice(size, size=count, replace=False).tolist())
    probs = np.zeros(size)
    probs[sorted(chosen)] = rng.random(len(chosen)) + 1e-3
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
def test_model_step_equals_completion_step(seed, dense_prev, dense_pet, prev_mass, where):
    rng = np.random.default_rng(seed)
    pet = compact_operand(rng, dense=dense_pet, mass=float(rng.choice([1.0, 1.0, 0.3])))
    prev = DiscretePMF.zero()
    if prev_mass:
        prev = compact_operand(rng, dense=dense_prev, mass=prev_mass)
    end = prev.max_time + pet.max_time
    deadline = {
        "before": lambda: prev.offset - int(rng.integers(0, 10)),
        "inside": lambda: int(rng.integers(prev.offset, max(prev.offset, end) + 1)),
        "after": lambda: end + int(rng.integers(1, 10)),
    }[where]()
    for policy in DroppingPolicy:
        for cap in (None, 1, model.CAP):
            assert_step_agrees(pet, prev, deadline, policy, cap)


def test_model_step_edge_cases():
    pet = DiscretePMF.from_impulses({2: 0.5, 3: 0.25, 6: 0.25})
    prev = DiscretePMF.from_impulses({10: 0.5, 12: 0.25, 20: 0.25})
    cases = [(pet, prev, deadline) for deadline in (9, 10, 11, 13, 16, 20, 21, 27, 40)]
    # A collapsed tail below the mass tolerance is dropped, not kept.
    thin_tail = DiscretePMF._raw(np.array([0.5, 0.5 - 2e-10, 0.0, 0.0, 2e-10]), 1)
    cases.append((thin_tail, DiscretePMF.point(10), 13))
    # A started branch whose product underflows the tolerance.
    faint = DiscretePMF._raw(pet.probs * 0.1, pet.offset)
    cases.append((faint, DiscretePMF._raw(np.array([2e-9, 0.0, 0.9]), 10), 11))
    cases += [(pet, DiscretePMF.zero(), 15), (DiscretePMF.zero(), prev, 15)]
    for pet_pmf, prev_pmf, deadline in cases:
        for policy in DroppingPolicy:
            for cap in (None, 1, 2, model.CAP):
                assert_step_agrees(pet_pmf, prev_pmf, deadline, policy, cap)


@pytest.mark.parametrize(
    "evict, heuristic", [(True, "PAMF"), (False, "PAM")], ids=["evict-PAMF", "pending-PAM"]
)
def test_model_step_equals_every_chain_step_of_a_trial(monkeypatch, evict, heuristic):
    """Every chain step the state, the mapper and the pruner take in a
    300-task prefix of the reference trace (capped chains, executing
    anchors, the pruner's walks)."""
    steps = []

    def recording_step(pet, prev, deadline, policy=DroppingPolicy.EVICT, max_impulses=None):
        step = completion_step(pet, prev, deadline, policy, max_impulses)
        steps.append((pet, prev, deadline, policy, max_impulses))
        return step

    for module in (state_module, mapping_module, pruner_module):
        monkeypatch.setattr(module, "completion_step", recording_step)
    pet = build_transcoding_pet(rng=2019)
    trace = load_trace(REFERENCE_TRACE)
    HCSimulator(
        pet,
        make_heuristic(heuristic, num_task_types=pet.num_task_types),
        config=SimulatorConfig(evict_executing_at_deadline=evict),
        rng=2021,
    ).run(trace.tasks[:300])
    policy = DroppingPolicy.EVICT if evict else DroppingPolicy.PENDING
    assert len(steps) > 200 and {step[3] for step in steps} == {policy}
    assert {step[4] for step in steps} == {None, model.CAP}
    for pet_pmf, prev, deadline, step_policy, cap in steps[:: max(1, len(steps) // 400)]:
        assert_step_agrees(pet_pmf, prev, deadline, step_policy, cap)


def test_model_eq1_on_the_figure_examples(simple_pmf, fig2_prev_pct):
    """Eq. 1 on Figure 3's middle PMFs (0.75 at deadline 3), and the scorer
    against the convolution it avoids on Figure 2's."""
    assert model.robustness({2: 0.25, 3: 0.5, 4: 0.25}, 3) == pytest.approx(0.75)
    assert model.robustness({1: 0.15, 2: 0.25, 3: 0.35, 4: 0.25}, 3) == pytest.approx(0.75)
    assert model.robustness({1: 0.5, 2: 0.5}, 10) == 1.0
    for deadline in range(2, 12):
        convolved = simple_pmf.convolve(fig2_prev_pct)
        assert model.success_probability(
            model.of(simple_pmf), model.of(fig2_prev_pct), deadline
        ) == pytest.approx(convolved.cdf(deadline))


@st.composite
def scoring_case(draw):
    """Availabilities of every shape a mapping event packs, and a PET grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n_machines, n_types = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    availabilities = []
    for _ in range(n_machines):
        kind = draw(st.sampled_from(["idle", "capped", "wide", "zero"]))
        start = int(rng.integers(0, 60))
        if kind == "idle":
            availabilities.append(DiscretePMF.point(start))
        elif kind == "zero":
            availabilities.append(DiscretePMF._raw(np.zeros(3), start))
        else:
            mass = float(rng.choice([1.0, 0.6]))
            operand = compact_operand(rng, dense=kind == "wide", mass=mass)
            availabilities.append(operand.shift(start + 20))
    grid = [
        [compact_operand(rng, dense=bool(rng.integers(0, 2)), mass=1.0) for _ in range(n_machines)]
        for _ in range(n_types)
    ]
    n_tasks = draw(st.integers(1, 6))
    types = rng.integers(0, n_types, n_tasks)
    deadlines = rng.choice([-5, 0, 1, 15, 40, 90, 200, 400, 10_000], n_tasks)
    return availabilities, grid, types, deadlines


@settings(max_examples=80, deadline=None)
@given(case=scoring_case())
def test_model_eq1_equals_packed_success_probability(case):
    availabilities, grid, types, deadlines = case
    got = packed_success_probability(
        *pack_impulses(availabilities), CDFTable.from_grid(grid), types, deadlines
    )
    for row, (task_type, deadline) in enumerate(zip(types.tolist(), deadlines.tolist())):
        for machine, availability in enumerate(availabilities):
            want = model.success_probability(
                model.of(grid[task_type][machine]), availability.to_impulses(), deadline
            )
            assert got[row, machine] == want


def test_model_expected_completion_is_the_convolution_mean(simple_pmf, fig2_prev_pct):
    expected = model.expected_completion(model.of(simple_pmf), model.of(fig2_prev_pct))
    assert expected == pytest.approx(simple_pmf.convolve(fig2_prev_pct).mean())
    assert np.isnan(model.expected_completion(model.of(simple_pmf), {}))
