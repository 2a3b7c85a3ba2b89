"""Tests for the task-record validator shared by the trace loader and the service."""

from __future__ import annotations

import pytest

from repro.workload.spec import integral_field


class TestIntegralField:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (7, 7),
            (-3, -3),
            (7.0, 7),
            (-0.0, 0),
            (2**53 + 1, 2**53 + 1),
            (2**63 - 1, 2**63 - 1),
            (-(2**63), -(2**63)),
        ],
        ids=["int", "negative", "integral-float", "negative-zero", "2**53+1", "int64-max", "int64-min"],
    )
    def test_accepts_exact_integers(self, value, expected):
        got = integral_field(value, "task_id")
        assert type(got) is int
        assert got == expected

    @pytest.mark.parametrize(
        "value",
        [
            True,
            "7",
            None,
            1.5,
            float("nan"),
            float("inf"),
            float("-inf"),
            2**63,
            -(2**63) - 1,
            1e19,
            10**400,
        ],
        ids=[
            "bool", "str", "none", "fraction", "nan", "inf", "-inf",
            "int64-max+1", "int64-min-1", "1e19", "401-digit",
        ],
    )
    def test_rejects_with_the_field_name(self, value):
        with pytest.raises(ValueError, match="^deadline "):
            integral_field(value, "deadline")
