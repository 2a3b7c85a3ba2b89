"""Property-based tests (Hypothesis) for workload-trace serialisation.

Three families of properties:

* **round-trip** — ``trace_from_dict(trace_to_dict(t))`` reproduces any
  generated trace exactly (tasks, config, type count), and the canonical
  content hash is invariant under JSON re-encoding and key order;
* **invariants** — loaded traces are arrival-ordered and every task's
  deadline lies strictly after its arrival, regardless of the order the
  payload listed the tasks in;
* **rejection** — corrupted payloads (missing fields, NaN/inf values,
  non-integral times, inverted deadlines, duplicate ids, bad version) are
  rejected with errors naming the offending task index.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.generator import WorkloadConfig, WorkloadTrace
from repro.workload.spec import TaskSpec
from repro.workload.traces import (
    trace_content_hash,
    trace_from_dict,
    trace_to_dict,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def task_specs(draw, *, max_types: int = 5) -> list[TaskSpec]:
    """A list of distinct-id task specs with valid arrival/deadline pairs."""
    n = draw(st.integers(min_value=0, max_value=30))
    specs = []
    for task_id in range(n):
        arrival = draw(st.integers(min_value=0, max_value=5000))
        slack = draw(st.integers(min_value=1, max_value=2000))
        task_type = draw(st.integers(min_value=0, max_value=max_types - 1))
        specs.append(
            TaskSpec(
                arrival=arrival,
                task_id=task_id,
                task_type=task_type,
                deadline=arrival + slack,
            )
        )
    return specs


@st.composite
def workload_traces(draw) -> WorkloadTrace:
    specs = sorted(draw(task_specs()))
    config = WorkloadConfig(
        num_tasks=max(1, len(specs)),
        time_span=draw(st.integers(min_value=1, max_value=10000)),
        beta=draw(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
        ),
        variance_fraction=draw(
            st.floats(
                min_value=0.01, max_value=5.0, allow_nan=False, allow_infinity=False
            )
        ),
    )
    num_types = 1 + max((s.task_type for s in specs), default=0)
    return WorkloadTrace(tuple(specs), config, num_task_types=num_types)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrip:
    @given(trace=workload_traces())
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip_is_exact(self, trace):
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert list(rebuilt) == list(trace)
        assert rebuilt.config == trace.config
        assert rebuilt.num_task_types == trace.num_task_types

    @given(trace=workload_traces())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_json_text(self, trace):
        payload = json.loads(json.dumps(trace_to_dict(trace)))
        rebuilt = trace_from_dict(payload)
        assert list(rebuilt) == list(trace)

    @given(trace=workload_traces())
    @settings(max_examples=30, deadline=None)
    def test_content_hash_invariant_under_reencoding(self, trace):
        rebuilt = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))
        assert trace_content_hash(rebuilt) == trace_content_hash(trace)

    @given(trace=workload_traces())
    @settings(max_examples=30, deadline=None)
    def test_shuffled_payload_restores_arrival_order(self, trace):
        payload = trace_to_dict(trace)
        payload["tasks"] = list(reversed(payload["tasks"]))
        rebuilt = trace_from_dict(payload)
        arrivals = [t.arrival for t in rebuilt]
        assert arrivals == sorted(arrivals)
        assert sorted(t.task_id for t in rebuilt) == sorted(t.task_id for t in trace)


# ----------------------------------------------------------------------
# Ordering / validity invariants
# ----------------------------------------------------------------------


class TestInvariants:
    @given(trace=workload_traces())
    @settings(max_examples=60, deadline=None)
    def test_loaded_trace_is_arrival_ordered_with_positive_slack(self, trace):
        rebuilt = trace_from_dict(trace_to_dict(trace))
        arrivals = [t.arrival for t in rebuilt]
        assert arrivals == sorted(arrivals)
        for task in rebuilt:
            assert task.deadline > task.arrival
            assert task.arrival >= 0
            assert 0 <= task.task_type < rebuilt.num_task_types


# ----------------------------------------------------------------------
# Rejection of corrupted payloads
# ----------------------------------------------------------------------


def _base_payload() -> dict:
    trace = WorkloadTrace(
        (
            TaskSpec(arrival=0, task_id=0, task_type=0, deadline=10),
            TaskSpec(arrival=5, task_id=1, task_type=1, deadline=25),
            TaskSpec(arrival=9, task_id=2, task_type=0, deadline=30),
        ),
        WorkloadConfig(num_tasks=3, time_span=100, beta=1.0),
        num_task_types=2,
    )
    return trace_to_dict(trace)


class TestRejection:
    def test_wrong_format_marker(self):
        with pytest.raises(ValueError, match="not a serialised workload trace"):
            trace_from_dict({"format": "something-else"})

    def test_non_mapping_payload(self):
        with pytest.raises(ValueError, match="not a serialised workload trace"):
            trace_from_dict([1, 2, 3])

    @given(version=st.integers().filter(lambda v: v != 1))
    @settings(max_examples=20, deadline=None)
    def test_mis_versioned_payload(self, version):
        payload = _base_payload()
        payload["version"] = version
        with pytest.raises(ValueError, match="unsupported trace version"):
            trace_from_dict(payload)

    @pytest.mark.parametrize("version", [None, [1], {"v": 1}, "one"])
    def test_non_numeric_version_rejected_cleanly(self, version):
        """A bad version must raise the promised ValueError, not TypeError."""
        payload = _base_payload()
        payload["version"] = version
        with pytest.raises(ValueError, match="unsupported trace version"):
            trace_from_dict(payload)

    @pytest.mark.parametrize("version", [float("inf"), 10**400], ids=["inf", "401-digit"])
    def test_overflowing_version_rejected_cleanly(self, version):
        """...nor OverflowError."""
        payload = _base_payload()
        payload["version"] = version
        with pytest.raises(ValueError, match="unsupported trace version"):
            trace_from_dict(payload)

    @pytest.mark.parametrize("field", ["task_id", "task_type", "arrival", "deadline"])
    def test_missing_task_field_names_index(self, field):
        payload = _base_payload()
        del payload["tasks"][1][field]
        with pytest.raises(ValueError, match=rf"task 1: missing field '{field}'"):
            trace_from_dict(payload)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["arrival", "deadline"])
    def test_non_finite_time_names_index(self, field, bad):
        payload = _base_payload()
        payload["tasks"][2][field] = bad
        with pytest.raises(ValueError, match=r"task 2: .* not finite"):
            trace_from_dict(payload)

    @pytest.mark.parametrize("bad", ["17", None, [3], {"t": 1}, True])
    def test_non_numeric_field_names_index(self, bad):
        payload = _base_payload()
        payload["tasks"][0]["arrival"] = bad
        with pytest.raises(ValueError, match=r"task 0: .*'arrival'"):
            trace_from_dict(payload)

    def test_fractional_time_rejected(self):
        payload = _base_payload()
        payload["tasks"][1]["deadline"] = 25.5
        with pytest.raises(ValueError, match=r"task 1: .*integer"):
            trace_from_dict(payload)

    @pytest.mark.parametrize(
        "bad", [10**400, 10**30 - 1, 1e300], ids=["401-digit", "30-digit", "1e300"]
    )
    def test_out_of_range_integer_names_index(self, bad):
        """Beyond 64 bits a field is refused, never rounded or overflowed."""
        payload = _base_payload()
        payload["tasks"][1]["task_id"] = bad
        with pytest.raises(ValueError, match=r"task 1: field 'task_id' is outside"):
            trace_from_dict(payload)

    def test_integer_above_2_53_round_trips_exactly(self):
        payload = _base_payload()
        payload["tasks"][1]["task_id"] = 2**53 + 1
        rebuilt = trace_from_dict(json.loads(json.dumps(payload)))
        assert [t.task_id for t in rebuilt] == [0, 2**53 + 1, 2]

    @pytest.mark.parametrize(
        "field,bad",
        [("num_tasks", float("inf")), ("time_span", 10**400), ("beta", 10**400)],
        ids=["num_tasks", "time_span", "beta"],
    )
    def test_overflowing_config_is_invalid(self, field, bad):
        payload = _base_payload()
        payload["config"][field] = bad
        with pytest.raises(ValueError, match="invalid trace config"):
            trace_from_dict(payload)

    def test_deadline_not_after_arrival_names_index(self):
        payload = _base_payload()
        payload["tasks"][1]["deadline"] = payload["tasks"][1]["arrival"]
        with pytest.raises(ValueError, match=r"task 1: deadline .* strictly"):
            trace_from_dict(payload)

    def test_negative_arrival_names_index(self):
        payload = _base_payload()
        payload["tasks"][0]["arrival"] = -3
        with pytest.raises(ValueError, match=r"task 0: arrival must be non-negative"):
            trace_from_dict(payload)

    def test_duplicate_task_id_names_index(self):
        payload = _base_payload()
        payload["tasks"][2]["task_id"] = payload["tasks"][0]["task_id"]
        with pytest.raises(ValueError, match=r"task 2: duplicate task_id"):
            trace_from_dict(payload)

    def test_task_record_not_an_object(self):
        payload = _base_payload()
        payload["tasks"][1] = 42
        with pytest.raises(ValueError, match=r"task 1: record is not an object"):
            trace_from_dict(payload)

    def test_undersized_num_task_types(self):
        payload = _base_payload()
        payload["num_task_types"] = 1
        with pytest.raises(ValueError, match=r"num_task_types \(1\) does not cover"):
            trace_from_dict(payload)

    def test_missing_task_list(self):
        payload = _base_payload()
        del payload["tasks"]
        with pytest.raises(ValueError, match="no task list"):
            trace_from_dict(payload)

    def test_invalid_config(self):
        payload = _base_payload()
        payload["config"]["num_tasks"] = 0
        with pytest.raises(ValueError, match="invalid trace config"):
            trace_from_dict(payload)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_single_field_corruption_never_passes_silently(self, data):
        """Corrupting one time field either errors or round-trips the value."""
        payload = _base_payload()
        index = data.draw(st.integers(min_value=0, max_value=2))
        field = data.draw(st.sampled_from(["arrival", "deadline"]))
        value = data.draw(
            st.one_of(
                st.floats(),  # includes NaN/inf/fractional
                st.integers(min_value=-(10**6), max_value=10**6),
                st.text(max_size=3),
                st.none(),
            )
        )
        payload["tasks"][index][field] = value
        try:
            rebuilt = trace_from_dict(payload)
        except ValueError as exc:
            assert f"task {index}" in str(exc)
        else:
            match = [t for t in rebuilt if t.task_id == payload["tasks"][index]["task_id"]]
            assert len(match) == 1
            assert getattr(match[0], field) == int(value)
            assert not isinstance(value, str)
            assert value == int(value) and math.isfinite(value)
