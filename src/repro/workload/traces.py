"""Workload trace persistence.

Experiments in the paper reuse the same arrival pattern across heuristics so
the comparison is paired.  Saving a generated trace to disk (JSON) makes that
pairing explicit and lets downstream users replay the exact workload a result
was produced on, or feed in traces captured from a real system.

Loading is strict: a malformed payload (wrong format marker, unsupported
version, missing or non-finite task fields) is rejected with an error that
names the offending task index, never silently coerced — a recorded trace
that round-trips is the contract the replay pipeline's cache keys rely on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from .generator import WorkloadConfig, WorkloadTrace
from .spec import TaskSpec, integral_field

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "trace_content_hash",
    "file_content_hash",
]

#: Format marker embedded in every serialised trace.
_FORMAT = "repro-workload-trace"
_VERSION = 1

#: Per-task fields every serialised trace must carry.
_TASK_FIELDS = ("task_id", "task_type", "arrival", "deadline")


def trace_to_dict(trace: WorkloadTrace) -> dict:
    """JSON-serialisable representation of a workload trace."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "config": {
            "num_tasks": trace.config.num_tasks,
            "time_span": trace.config.time_span,
            "beta": trace.config.beta,
            "variance_fraction": trace.config.variance_fraction,
        },
        "num_task_types": trace.num_task_types,
        "tasks": [
            {
                "task_id": task.task_id,
                "task_type": task.task_type,
                "arrival": task.arrival,
                "deadline": task.deadline,
            }
            for task in trace
        ],
    }


def _task_int(item: Mapping, field: str, index: int) -> int:
    """One validated integer task field; errors name the task index."""
    try:
        value = item[field]
    except (KeyError, TypeError):
        raise ValueError(f"task {index}: missing field {field!r}") from None
    return integral_field(value, f"task {index}: field {field!r}")


def trace_from_dict(payload: Mapping) -> WorkloadTrace:
    """Rebuild a workload trace from :func:`trace_to_dict` output.

    Raises
    ------
    ValueError
        If the payload is not a serialised trace, carries an unsupported
        version, or any task record is missing a field / holds a
        non-finite or non-integral value — the message names the offending
        task index.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("payload is not a serialised workload trace")
    if payload.get("format") != _FORMAT:
        raise ValueError("payload is not a serialised workload trace")
    try:
        version = integral_field(payload.get("version", -1), "version")
    except ValueError:
        version = None
    if version != _VERSION:
        raise ValueError(f"unsupported trace version {payload.get('version')!r}")
    try:
        config_payload = payload["config"]
        config = WorkloadConfig(
            num_tasks=integral_field(config_payload["num_tasks"], "num_tasks"),
            time_span=integral_field(config_payload["time_span"], "time_span"),
            beta=float(config_payload["beta"]),
            variance_fraction=float(config_payload["variance_fraction"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid trace config: {exc}") from exc
    tasks_payload = payload.get("tasks")
    if not isinstance(tasks_payload, (list, tuple)):
        raise ValueError("trace payload has no task list")

    specs = []
    seen_ids: set[int] = set()
    for index, item in enumerate(tasks_payload):
        if not isinstance(item, Mapping):
            raise ValueError(f"task {index}: record is not an object")
        values = {field: _task_int(item, field, index) for field in _TASK_FIELDS}
        if values["arrival"] < 0:
            raise ValueError(
                f"task {index}: arrival must be non-negative, got {values['arrival']}"
            )
        if values["task_type"] < 0:
            raise ValueError(
                f"task {index}: task_type must be non-negative, got {values['task_type']}"
            )
        if values["deadline"] <= values["arrival"]:
            raise ValueError(
                f"task {index}: deadline ({values['deadline']}) must be strictly "
                f"after arrival ({values['arrival']})"
            )
        if values["task_id"] in seen_ids:
            raise ValueError(f"task {index}: duplicate task_id {values['task_id']}")
        seen_ids.add(values["task_id"])
        specs.append(
            TaskSpec(
                arrival=values["arrival"],
                task_id=values["task_id"],
                task_type=values["task_type"],
                deadline=values["deadline"],
            )
        )

    num_task_types = integral_field(payload.get("num_task_types", 0), "num_task_types")
    if specs:
        highest = max(spec.task_type for spec in specs)
        if num_task_types <= highest:
            raise ValueError(
                f"num_task_types ({num_task_types}) does not cover task type "
                f"{highest}"
            )
    ordered = tuple(sorted(specs))
    return WorkloadTrace(ordered, config, num_task_types=num_task_types)


def save_trace(trace: WorkloadTrace, path: str | Path) -> Path:
    """Write a trace to a JSON file and return the path.

    The file is streamed task by task: the full serialised dict of a
    100k-task trace costs tens of megabytes of transient allocations, so the
    header is written first and each task record is appended individually.
    The bytes produced are identical to
    ``json.dumps(trace_to_dict(trace), indent=2)``, which keeps content
    hashes of previously recorded files stable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "config": {
            "num_tasks": trace.config.num_tasks,
            "time_span": trace.config.time_span,
            "beta": trace.config.beta,
            "variance_fraction": trace.config.variance_fraction,
        },
        "num_task_types": trace.num_task_types,
    }
    with path.open("w", encoding="utf-8") as fh:
        head = json.dumps(header, indent=2)
        # ``head`` ends with '\n}'; splice the tasks array in as the last key.
        fh.write(head[: -len("\n}")])
        if len(trace) == 0:
            fh.write(',\n  "tasks": []\n}')
            return path
        fh.write(',\n  "tasks": [')
        first = True
        for task in trace:
            fh.write(
                ("" if first else ",")
                + "\n    {"
                + f'\n      "task_id": {task.task_id},'
                + f'\n      "task_type": {task.task_type},'
                + f'\n      "arrival": {task.arrival},'
                + f'\n      "deadline": {task.deadline}'
                + "\n    }"
            )
            first = False
        fh.write("\n  ]\n}")
    return path


def load_trace(path: str | Path) -> WorkloadTrace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace file {path} is not valid JSON: {exc}") from exc
    try:
        return trace_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"trace file {path}: {exc}") from exc


def trace_content_hash(trace: WorkloadTrace) -> str:
    """SHA-256 content address of a trace's canonical serialised form.

    Formatting-independent: two files holding the same trace with
    different whitespace or key order hash identically, which is what the
    sweep cache folds into its keys.
    """
    canonical = json.dumps(
        trace_to_dict(trace), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_content_hash(path: str | Path) -> str:
    """Canonical content hash of a trace file (see :func:`trace_content_hash`)."""
    return trace_content_hash(load_trace(path))
