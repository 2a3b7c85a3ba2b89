"""Export surfaces of a :class:`~repro.obs.telemetry.Telemetry` registry.

Two formats, one registry:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the span
  timeline as Chrome trace-event JSON (the ``{"traceEvents": [...]}``
  object form), loadable in ``chrome://tracing`` / Perfetto.  Spans become
  complete (``"ph": "X"``) events with microsecond timestamps relative to
  the registry's epoch; counters/gauges ride along as one metadata event so
  a trace file is self-contained.
* :func:`snapshot` / :func:`write_snapshot` — a flat JSON snapshot:
  counters, gauges, and per-name timing summaries (the same
  ``count/mean_s/p50_s/p95_s/p99_s/max_s`` schema the serve metrics use).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .telemetry import Telemetry

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "snapshot",
    "write_snapshot",
]

#: Snapshot schema version (bump on breaking key changes).
SNAPSHOT_SCHEMA = 1


def chrome_trace_events(telemetry: Telemetry) -> list[dict]:
    """The registry's span timeline as Chrome trace-event dicts."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro"},
        }
    ]
    for name, start_ns, duration_ns, attrs in telemetry.spans:
        event: dict = {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": start_ns / 1e3,  # trace-event timestamps are microseconds
            "dur": duration_ns / 1e3,
            "pid": 1,
            "tid": 1,
        }
        if attrs:
            event["args"] = attrs
        events.append(event)
    return events


def write_chrome_trace(telemetry: Telemetry, path: str | Path) -> Path:
    """Write the Chrome trace JSON (object form, with a summary sidecar)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "spans_recorded": len(telemetry.spans),
            "spans_dropped": telemetry.dropped_spans,
        },
    }
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    return path


def snapshot(telemetry: Telemetry) -> dict:
    """Flat JSON-able snapshot of every counter, gauge, and timing summary."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "counters": dict(sorted(telemetry.counters.items())),
        "gauges": dict(sorted(telemetry.gauges.items())),
        "timings": {
            name: telemetry.timings[name].summary()
            for name in sorted(telemetry.timings)
        },
        "spans": {
            "recorded": len(telemetry.spans),
            "dropped": telemetry.dropped_spans,
        },
    }


def write_snapshot(telemetry: Telemetry, path: str | Path) -> Path:
    """Write the flat snapshot as indented JSON (NaNs become ``null``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = _json_safe(snapshot(telemetry))
    path.write_text(json.dumps(document, indent=2, allow_nan=False) + "\n")
    return path


def _json_safe(value):
    """Replace non-finite floats with ``None`` so the JSON stays strict."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value

