"""Tier-1 smoke test of the perf ledger (``bench/``).

Runs every workload at ``--smoke`` size through the same code path as
``python -m bench run`` and checks the contract with ``BENCHMARK.json``:
every named metric is emitted once per workload, with its unit and a finite
value.  Also unit-tests the two pieces of arithmetic the ledger's claims
rest on — span self time and the ``compare`` verdicts — on synthetic input.
"""

from __future__ import annotations

import json
import math

import pytest

from bench import ensure_repro_importable, metrics
from bench.common import Options
from bench.compare import compare_documents, verdict
from bench.tracing import span_totals

ensure_repro_importable()


@pytest.fixture(scope="module")
def smoke_document():
    from bench import ledger

    options = Options(seed=2019, seconds=1.0, smoke=True)
    return ledger.run_all(options, metrics.workload_names(), log=lambda message: None)


def test_contract_file_is_well_formed():
    contract = metrics.contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert contract["paths"] == ["bench"]
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(metrics.NAME_PATTERN.fullmatch(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in contract["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    for metric in contract["per_layer"]:
        assert metrics.LAYER_UNITS[metric["name"]] == metric["unit"]


def test_smoke_run_emits_every_contract_metric(smoke_document):
    contract = metrics.contract()
    assert list(smoke_document["workloads"]) == metrics.workload_names()
    for name, entry in smoke_document["workloads"].items():
        assert metrics.NAME_PATTERN.fullmatch(name)
        for kind in ("end_to_end", "per_layer"):
            emitted = entry[kind]
            for metric in contract[kind]:
                sample = emitted[metric["name"]]
                assert sample["unit"] == metric["unit"], (name, metric["name"])
                assert math.isfinite(sample["value"]), (name, metric["name"])
            for metric_name, sample in emitted.items():
                assert metrics.NAME_PATTERN.fullmatch(metric_name)
                assert sample["unit"] and math.isfinite(sample["value"]), (name, metric_name)
        assert all(entry["end_to_end"][m["name"]]["value"] > 0 for m in contract["end_to_end"])
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert all(entry["checks"].values()), (name, entry["checks"])
    assert smoke_document["ok"]
    record = smoke_document["record"]
    assert record["schema"] == 1 and record["kernel_backend"] == "numpy"
    json.dumps(smoke_document, default=str)  # the result file must serialise


def test_smoke_run_reports_workload_specific_layers(smoke_document):
    serve = smoke_document["workloads"]["serve-socket"]["per_layer"]
    sweep = smoke_document["workloads"]["sweep-fig7"]["per_layer"]
    assert serve["serve.rejected"]["value"] == 0
    assert serve["serve.core_submit_us_p50"]["value"] > 0
    assert serve["serve.start_s"]["value"] > 0
    assert sweep["sweep.cache_hits"]["value"] == sweep["sweep.cache_misses"]["value"] == 2
    assert sweep["sweep.serial_s"]["value"] > 0


def test_refuses_ambient_kernel_backend(monkeypatch):
    from bench.__main__ import main

    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    with pytest.raises(SystemExit, match="REPRO_KERNEL_BACKEND"):
        main(["measure", "--workload", "trial-event", "--seconds", "1"])


# ----------------------------------------------------------------------
# Self time on synthetic span lists.
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        # Recorded retrospectively, i.e. in end order: children first.
        ("kernel", 20, 10, None),
        ("state", 15, 30, None),  # contains kernel
        ("state", 50, 10, None),
        ("map", 10, 60, None),  # contains both state spans
        ("root", 0, 100, None),
    ]
    totals = span_totals(spans)
    assert totals["root"].self_ns == 40 and totals["root"].total_ns == 100
    assert totals["map"].self_ns == 60 - 30 - 10
    assert totals["state"].count == 2
    assert totals["state"].total_ns == 40 and totals["state"].self_ns == 30
    assert totals["kernel"].self_ns == 10
    assert sum(t.self_ns for t in totals.values()) == 100


def test_self_time_of_disjoint_and_back_to_back_spans():
    totals = span_totals([("a", 0, 10, None), ("b", 10, 5, None), ("a", 20, 10, None)])
    assert totals["a"].self_ns == 20 and totals["b"].self_ns == 5
    assert span_totals([]) == {}


# ----------------------------------------------------------------------
# compare verdicts on synthetic result files.
# ----------------------------------------------------------------------
def _timed(value, samples):
    ordered = sorted(samples)
    return {
        "value": value,
        "unit": "1/s",
        "samples": samples,
        "q1": ordered[len(ordered) // 4],
        "median": ordered[len(ordered) // 2],
        "q3": ordered[(3 * len(ordered)) // 4],
        "n": len(samples),
    }


def test_compare_verdicts():
    steady_a = _timed(1000.0, [980.0, 990.0, 1000.0])
    assert verdict("tasks_per_s", "higher", 0.1, steady_a, _timed(950.0, [930.0, 940.0, 950.0]))[0] == "ok"
    assert verdict("tasks_per_s", "higher", 0.1, steady_a, _timed(800.0, [780.0, 790.0, 800.0]))[0] == "regressed"
    assert verdict("tasks_per_s", "higher", 0.1, steady_a, _timed(1300.0, [1280.0, 1290.0, 1300.0]))[0] == "improved"
    assert verdict("latency_p50_ms", "lower", 0.1, steady_a, _timed(1300.0, [1280.0, 1290.0, 1300.0]))[0] == "regressed"
    # Spread wider than the bound and the repetitions interleave: cannot tell.
    noisy_a = _timed(1000.0, [600.0, 800.0, 1000.0])
    noisy_b = _timed(850.0, [550.0, 700.0, 850.0])
    assert verdict("tasks_per_s", "higher", 0.1, noisy_a, noisy_b)[0] == "unresolved"
    # ... unless every repetition of one run beats every one of the other.
    noisy_slow = _timed(500.0, [300.0, 400.0, 500.0])
    assert verdict("tasks_per_s", "higher", 0.1, noisy_a, noisy_slow)[0] == "regressed"
    exact = {"value": 93.6, "unit": "%"}
    assert verdict("robustness_pct", "higher", 0.25, exact, {"value": 93.6, "unit": "%"})[0] == "ok"
    assert verdict("robustness_pct", "higher", 0.25, exact, {"value": 93.5, "unit": "%"})[0] == "regressed"
    assert verdict("failed_share", "lower", 0.0, {"value": 0.0, "unit": "ratio"}, {"value": 0.01, "unit": "ratio"})[0] == "regressed"


def test_compare_documents_flags_any_rise_in_failed_share():
    def document(tasks_per_s, failed_share):
        return {
            "workloads": {
                "trial-event": {
                    "end_to_end": {
                        "tasks_per_s": _timed(tasks_per_s, [tasks_per_s * 0.98, tasks_per_s]),
                        "failed_share": {"value": failed_share, "unit": "ratio"},
                    }
                }
            }
        }

    rows, passed = compare_documents(document(1000.0, 0.0), document(1010.0, 0.0))
    assert passed and [row["verdict"] for row in rows] == ["ok", "ok"]
    rows, passed = compare_documents(document(1000.0, 0.0), document(1010.0, 0.001))
    assert not passed
    assert {row["metric"]: row["verdict"] for row in rows}["failed_share"] == "regressed"
