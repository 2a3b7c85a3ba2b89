"""Telemetry registry, activation scoping, and the three export formats."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    active,
    chrome_trace_events,
    set_active,
    snapshot,
    use_telemetry,
    write_chrome_trace,
    write_snapshot,
)


# ----------------------------------------------------------------------
# Null registry
# ----------------------------------------------------------------------
def test_null_telemetry_is_the_default():
    assert active() is NULL_TELEMETRY
    assert NULL_TELEMETRY.enabled is False


def test_null_telemetry_is_stateless_and_shared():
    null = NullTelemetry()
    span = null.span("anything", attr=1)
    assert span is null.span("something.else")  # one shared no-op span
    with span:
        pass
    null.count("x")
    null.set_count("x", 5)
    null.gauge("g", 1.0)
    null.observe_ns("t", 100)
    null.add_span("s", 0, 10)
    assert not hasattr(null, "counters")


# ----------------------------------------------------------------------
# Recording registry
# ----------------------------------------------------------------------
def test_counters_gauges_and_timings():
    tel = Telemetry()
    tel.count("a")
    tel.count("a", 4)
    tel.set_count("b", 7)
    tel.set_count("b", 7)  # idempotent republish
    tel.gauge("g", 2.5)
    tel.observe_ns("t", 1_000_000)
    assert tel.counters == {"a": 5, "b": 7}
    assert tel.gauges == {"g": 2.5}
    assert tel.timings["t"].count == 1
    assert tel.timings["t"].total == pytest.approx(1e-3)
    tel.merge_counts({"a": 1, "c": 2})
    assert tel.counters["a"] == 6 and tel.counters["c"] == 2


def test_span_context_manager_records_on_exit():
    tel = Telemetry()
    with tel.span("unit.work", task=3):
        pass
    assert len(tel.spans) == 1
    name, start_ns, duration_ns, attrs = tel.spans[0]
    assert name == "unit.work"
    assert start_ns >= 0  # relative to the registry epoch
    assert duration_ns >= 0
    assert attrs == {"task": 3}
    # Every span also lands in the timing histogram of its name.
    assert tel.timings["unit.work"].count == 1


def test_span_cap_counts_drops_but_keeps_timings():
    tel = Telemetry(max_spans=2)
    for _ in range(5):
        with tel.span("s"):
            pass
    assert len(tel.spans) == 2
    assert tel.dropped_spans == 3
    assert tel.timings["s"].count == 5  # histogram is bounded, never drops
    with pytest.raises(ValueError):
        Telemetry(max_spans=-1)


def test_use_telemetry_scopes_and_restores():
    tel = Telemetry()
    assert active() is NULL_TELEMETRY
    with use_telemetry(tel) as scoped:
        assert scoped is tel
        assert active() is tel
        inner = Telemetry()
        with use_telemetry(inner):
            assert active() is inner
        assert active() is tel
    assert active() is NULL_TELEMETRY
    previous = set_active(tel)
    assert previous is NULL_TELEMETRY
    assert set_active(None) is tel
    assert active() is NULL_TELEMETRY


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def _recorded_telemetry() -> Telemetry:
    tel = Telemetry()
    with tel.span("engine.mapping_event.PAM", batch=2):
        pass
    with tel.span("kernel.numpy.success_probability"):
        pass
    tel.count("engine.events.arrival", 10)
    tel.gauge("engine.end_time", 42.0)
    return tel


def test_chrome_trace_event_shape():
    tel = _recorded_telemetry()
    events = chrome_trace_events(tel)
    assert events[0]["ph"] == "M"  # process-name metadata leads
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {
        "engine.mapping_event.PAM",
        "kernel.numpy.success_probability",
    }
    for event in spans:
        assert event["cat"] in {"engine", "kernel"}
        assert event["pid"] == 1 and event["tid"] == 1
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
    [mapping] = [e for e in spans if e["name"].startswith("engine.")]
    assert mapping["args"] == {"batch": 2}


def test_write_chrome_trace_loads_back(tmp_path):
    tel = _recorded_telemetry()
    path = write_chrome_trace(tel, tmp_path / "deep" / "trace.json")
    document = json.loads(path.read_text())
    assert isinstance(document["traceEvents"], list)
    assert document["otherData"]["spans_recorded"] == 2
    assert document["otherData"]["spans_dropped"] == 0


def test_snapshot_schema_and_file(tmp_path):
    tel = _recorded_telemetry()
    snap = snapshot(tel)
    assert snap["schema"] == 1
    assert snap["counters"]["engine.events.arrival"] == 10
    assert snap["gauges"]["engine.end_time"] == 42.0
    assert set(snap["timings"]) == {
        "engine.mapping_event.PAM",
        "kernel.numpy.success_probability",
    }
    assert snap["spans"] == {"recorded": 2, "dropped": 0}
    path = write_snapshot(tel, tmp_path / "snap.json")
    loaded = json.loads(path.read_text())  # strict JSON: NaN would fail here
    assert loaded["counters"] == snap["counters"]


def test_write_snapshot_maps_nan_to_null(tmp_path):
    tel = Telemetry()
    tel.gauge("weird", float("nan"))
    path = write_snapshot(tel, tmp_path / "snap.json")
    loaded = json.loads(path.read_text())
    assert loaded["gauges"]["weird"] is None
