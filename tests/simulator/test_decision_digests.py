"""Decisions on the reference trace are pinned to a committed artefact.

``decision_digests.json`` was generated by ``scripts/make_decision_digests.py``
at the commit *before* availability became demand-driven, so a matching
digest proves a performance change took the same decisions as the code it
replaced — not merely that two paths inside the current tree agree.  Six
heuristics x both engine modes on the 660-task transcoding trace, plus the
``scale-oversub/`` rows (generated at the commit before phase-1 scores were
carried across mapping events): the three robustness-based heuristics x
both modes on a 600-task load-3.0 scale trace; and the ``scale-event/`` and
``scale-batched/`` rows (generated at the commit before the phase-1 table
outlived its mapping event): PAMF on the perf ledger's ``trial-event`` and
``trial-batched`` inputs; and the ``pending/`` rows (generated at the commit
before the from-scratch availability walkers left ``src/``): PAM and PAMF x
both modes on the 660-task trace under the PENDING dropping regime.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "make_decision_digests", REPO_ROOT / "scripts" / "make_decision_digests.py"
)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

COMMITTED = json.loads(digests.DIGEST_PATH.read_text())


@pytest.fixture(scope="module")
def inputs():
    return {workload: spec.inputs() for workload, spec in digests.WORKLOADS.items()}


def test_fixture_covers_every_heuristic_and_mode():
    from repro.heuristics.registry import HEURISTIC_NAMES

    assert digests.WORKLOADS[""].heuristics == HEURISTIC_NAMES
    assert digests.WORKLOADS[""].windows == digests.BATCH_WINDOWS
    assert set(COMMITTED) == {
        key for workload in digests.WORKLOADS for key, *_ in digests.workload_keys(workload)
    }


@pytest.mark.parametrize("key", sorted(COMMITTED))
def test_decisions_match_committed_digest(key, inputs):
    run, window = key.split("/window=")
    workload, _, heuristic = run.rpartition("/")
    pet, trace = inputs[workload]
    spec = digests.WORKLOADS[workload]
    assert (
        digests.decision_digest(pet, trace, heuristic, int(window), spec.engine_seed, spec.config)
        == COMMITTED[key]
    )
