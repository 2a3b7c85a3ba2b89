"""Running workloads and assembling what they report.

Two consumers share :func:`run_workload`: ``measure`` (one workload, one
JSON line — the ``BENCHMARK.json`` driver contract) and ``run`` (every
workload, untraced then traced, one schema-versioned result file plus the
printed tables).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from . import RESULTS_DIR, ROOT, SCHEMA_VERSION, metrics, micro, serve, sweep, trial
from .common import Options, Outcome, Sample

WORKLOADS = {
    "trial-event": trial,
    "trial-batched": trial,
    "trial-oversub": trial,
    "serve-socket": serve,
    "sweep-fig7": sweep,
}


def run_workload(name: str, options: Options, *, traced: bool, micro_metrics=None) -> Outcome:
    """One workload, untraced (end-to-end metrics) or traced (per-layer)."""
    module = WORKLOADS[name]
    if not traced:
        return module.measure(name, options)
    outcome = module.trace_layers(name, options)
    layers = outcome.info["layers"]
    layers.update(micro_metrics if micro_metrics is not None else micro.measure(smoke=options.smoke))
    outcome.metrics = {
        metric: Sample(float(value), metrics.LAYER_UNITS[metric])
        for metric, value in layers.items()
    }
    return outcome


def driver_line(outcome: Outcome, names) -> str:
    """The one JSON object the ``BENCHMARK.json`` driver reads."""
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: outcome.metrics[name].payload() for name in names},
        }
    )


# ----------------------------------------------------------------------
# The full ledger.
# ----------------------------------------------------------------------
def run_record(options: Options) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "schema": SCHEMA_VERSION,
        "git_commit": commit or None,
        "seed": options.seed,
        "seconds": options.seconds,
        "smoke": options.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": options.kernel_backend or "numpy",
        "started_unix": time.time(),
    }


def ledger_extras(name: str, untraced: Outcome, traced: Outcome) -> dict[str, float]:
    """Per-layer metrics only one workload has; they need both runs."""
    info = untraced.info
    if name == "serve-socket":
        core_us = traced.info["core_us_per_task"]
        extras = {key: value for key, value in info.items() if key.startswith("serve.")}
        extras["serve.wire_us_per_task"] = 1e6 / untraced.metrics["tasks_per_s"].value - core_us
        return extras
    if name == "sweep-fig7":
        return {key: value for key, value in info.items() if key.startswith("sweep.")}
    return {}


def run_all(options: Options, names: list[str], *, log=print) -> dict:
    """Every named workload, untraced then traced; returns the result document."""
    from repro.obs.export import write_chrome_trace

    document = {"record": run_record(options), "workloads": {}}
    whys = metrics.workload_whys()
    micro_metrics = micro.measure(smoke=options.smoke)
    for name in names:
        log(f"[{name}] untraced repetitions …")
        untraced = run_workload(name, options, traced=False)
        log(f"[{name}] traced repetition …")
        traced = run_workload(name, options, traced=True, micro_metrics=micro_metrics)
        for metric, value in ledger_extras(name, untraced, traced).items():
            traced.metrics[metric] = Sample(float(value), metrics.LAYER_UNITS[metric])
        telemetry = traced.info.pop("telemetry")
        traced.info.pop("layers")
        trace_path = write_chrome_trace(
            telemetry, RESULTS_DIR / f"trace-{name}-seed{options.seed}.json"
        )
        checks = dict(untraced.checks)
        checks.update({f"traced.{key}": ok for key, ok in traced.checks.items()})
        if "signature" in traced.info:
            checks["traced_run_equals_untraced_run"] = (
                traced.info["signature"] == untraced.info["signature"]
            )
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        document["workloads"][name] = {
            "why": whys[name],
            "end_to_end": {
                **{m: s.payload(full=True) for m, s in untraced.metrics.items()},
                "failed_share": {"value": failed / attempted, "unit": "ratio"},
            },
            "per_layer": {m: s.payload() for m, s in sorted(traced.metrics.items())},
            "attempted": attempted,
            "failed": failed,
            "checks": checks,
            "info": {
                **untraced.info,
                **traced.info,
                "chrome_trace": str(trace_path.relative_to(ROOT)),
            },
        }
    document["ok"] = all(
        entry["failed"] == 0 and all(entry["checks"].values())
        for entry in document["workloads"].values()
    )
    return document


def write_document(document: dict, out: Path | None) -> Path:
    record = document["record"]
    if out is None:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(record["started_unix"]))
        out = RESULTS_DIR / f"bench-seed{record['seed']}-{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, default=str) + "\n")
    return out


def format_tables(document: dict) -> str:
    """Every metric by name with its unit, one block per workload."""
    lines = []
    for name, entry in document["workloads"].items():
        lines.append(f"== {name}  ({entry['why']})")
        lines.append("  end-to-end (noise floor; median [q1..q3] n of the repetitions' own readings)")
        for metric, sample in entry["end_to_end"].items():
            spread = ""
            if "median" in sample:
                spread = "   median {median:.6g} [{q1:.6g}..{q3:.6g}] n={n}".format(**sample)
            lines.append(f"    {metric:<18}{sample['value']:>14.6g} {sample['unit']:<6}{spread}")
        lines.append("  per-layer (traced repetition + micro-drivers)")
        for metric, sample in entry["per_layer"].items():
            lines.append(f"    {metric:<30}{sample['value']:>14.6g} {sample['unit']}")
        root_s = entry["per_layer"]["trace.root_s"]["value"]
        shares = "  ".join(
            f"{column.rsplit('.', 1)[0]} {entry['per_layer'][column]['value'] / root_s:.1%}"
            for column in metrics.SHARE_COLUMNS
        )
        lines.append(f"  share of engine.run (self time): {shares}")
        failing = [check for check, ok in entry["checks"].items() if not ok]
        lines.append(
            f"  checks: {len(entry['checks']) - len(failing)}/{len(entry['checks'])} pass"
            + (f"  FAILED: {', '.join(failing)}" if failing else "")
            + f"   failed operations: {entry['failed']}/{entry['attempted']}"
        )
    return "\n".join(lines)


def progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
