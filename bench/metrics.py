"""Metric vocabulary: what ``BENCHMARK.json`` names, plus the ledger's extras.

``BENCHMARK.json`` is the contract: every workload emits every metric it
lists (``measure --trace 0`` the end-to-end ones, ``--trace 1`` the
per-layer ones), and the driver holds the workloads it names to the bounds.  Per-layer metrics that only one workload can measure
(``serve.*``, ``sweep.*``) or that are structurally zero on some workload
are not in the contract; ``python -m bench run`` still reports them.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from . import ROOT

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: Deterministic per seed: ``compare`` treats any worsening as a regression,
#: whatever bound the contract gives the driver for runs on *different* seeds.
EXACT = frozenset({"robustness_pct", "failed_share"})

#: Unit of every per-layer metric the ledger can report.
LAYER_UNITS = {
    "engine.events": "count",
    "engine.mapping_events": "count",
    "engine.self_s": "s",
    "engine.us_per_mapping_event": "us",
    "heuristics.map_tasks_s": "s",
    "heuristics.self_s": "s",
    "heuristics.assignments": "count",
    "heuristics.useful_event_share": "ratio",
    "score_table.fill_s": "s",
    "score_table.rescore_s": "s",
    "score_table.self_s": "s",
    "score_table.fills": "count",
    "score_table.dirty_columns": "count",
    "state.query_s": "s",
    "state.queries": "count",
    "state.us_per_query": "us",
    "state.excluding_s": "s",
    "state.excluding_calls": "count",
    "state.self_s": "s",
    "state.incremental_event_us": "us",
    "pruning.busy_s": "s",
    "pruning.self_s": "s",
    "pruning.select_drops_s": "s",
    "pruning.deferrals": "count",
    "pruning.proactive_drops": "count",
    "pruning.deferrals_per_task": "ratio",
    "kernel.busy_s": "s",
    "kernel.calls": "count",
    "core.chain6_us": "us",
    "core.convolve_us": "us",
    "core.score_grid_ms": "ms",
    "core.ragged_convolve_ms": "ms",
    "pet.build_s": "s",
    "workload.build_s": "s",
    "serve.codec_us": "us",
    "sweep.cache_load_us": "us",
    "sweep.cache_store_us": "us",
    "trace.root_s": "s",
    "trace.overhead_pct": "%",
    "trace.attributed_share": "ratio",
    "trace.spans": "count",
    "trace.dropped_spans": "count",
    # Ledger-only: measurable on one workload.
    "serve.start_s": "s",
    "serve.core_submit_us_p50": "us",
    "serve.core_submit_us_p99": "us",
    "serve.wire_us_per_task": "us",
    "serve.decisions_per_task": "ratio",
    "serve.rejected": "count",
    "serve.late_send_p99_ms": "ms",
    "serve.closed64_ack_p50_ms": "ms",
    "sweep.trial_s_p50": "s",
    "sweep.serial_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.cache_hits": "count",
    "sweep.cache_misses": "count",
}

#: Self-time columns of the share-of-``engine.run`` table, in print order.
SHARE_COLUMNS = (
    "engine.self_s",
    "heuristics.self_s",
    "state.self_s",
    "pruning.self_s",
    "score_table.self_s",
    "kernel.busy_s",
)


@lru_cache(maxsize=1)
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: Workloads the ledger (``run``, ``compare``) has beyond the contract's.
#: ``sweep-fig7`` is not held to a bound by the ``BENCHMARK.json`` driver: its
#: cold sweeps build everything anew per trial, and the host's slow hours
#: cost that kind of code 25-35% for minutes on end (the hot loops of the
#: other workloads: 5-12%), more than any bound the contract allows — see
#: README "Reading the numbers".
LEDGER_ONLY_WORKLOADS = {
    "sweep-fig7": "Figure-7 grid (6 heuristics x 2 levels) through run_sweep: serial cold "
    "sweeps timed per point, warm reruns and one 2-job pool sweep checked: baseline "
    "mappers, ResultCache, process fan-out",
}


def workload_whys() -> dict[str, str]:
    """Every ledger workload, the contract's first, with why it exists."""
    whys = {workload["name"]: workload["why"] for workload in contract()["workloads"]}
    return {**whys, **LEDGER_ONLY_WORKLOADS}


def workload_names() -> list[str]:
    return list(workload_whys())


def end_to_end() -> dict[str, dict]:
    return {metric["name"]: metric for metric in contract()["end_to_end"]}


def per_layer_names() -> list[str]:
    return [metric["name"] for metric in contract()["per_layer"]]
