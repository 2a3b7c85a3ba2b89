"""The load generator and the serve bench harness.

Key invariant: the arrival-rate multiplier only changes wall-clock pacing —
the decision stream itself is bit-identical at every rate (virtual time is
carried by the submissions, not the wall clock).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.serve.loadgen import replay_trace, run_bench, slice_trace
from repro.serve.service import decision_map
from repro.workload.generator import WorkloadTrace


class TestSliceTrace:
    def test_none_returns_whole_trace(self, light_trace):
        assert slice_trace(light_trace, None) is light_trace

    def test_oversized_returns_whole_trace(self, light_trace):
        assert slice_trace(light_trace, len(light_trace) + 5) is light_trace

    def test_slice_preserves_task_type_universe(self, light_trace):
        sliced = slice_trace(light_trace, 3)
        assert len(sliced) == 3
        assert isinstance(sliced, WorkloadTrace)
        assert sliced.num_task_types == light_trace.num_task_types
        assert sliced.tasks == light_trace.tasks[:3]

    def test_empty_slice_rejected(self, light_trace):
        with pytest.raises(ValueError):
            slice_trace(light_trace, 0)


class TestReplayValidation:
    def test_bad_rate_rejected(self, light_trace):
        import asyncio

        with pytest.raises(ValueError, match="rate"):
            asyncio.run(replay_trace("/nonexistent.sock", light_trace, rate=0.0))

    def test_bad_time_unit_rejected(self, light_trace):
        import asyncio

        with pytest.raises(ValueError, match="time_unit"):
            asyncio.run(
                replay_trace("/nonexistent.sock", light_trace, time_unit_seconds=-1.0)
            )


#: The client-facing transports the bench drives.
TRANSPORTS = ["unix", "tcp"]


class TestRunBench:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_bench_writes_report_and_checks_equivalence(
        self, tmp_path, small_gamma_pet, light_trace, transport
    ):
        out = tmp_path / "BENCH_serve.json"
        report = run_bench(
            small_gamma_pet,
            light_trace,
            heuristic_name="PAMF",
            pet_kind="small",
            seed=5,
            rates=(200.0, 2000.0),
            check_offline=True,
            out_path=out,
            transport=transport,
        )
        assert report.equivalent_to_offline is True
        assert len(report.rates) == 2
        assert [rate.multiplier for rate in report.rates] == [200.0, 2000.0]
        for rate in report.rates:
            assert rate.tasks == len(light_trace)
            assert rate.decisions > 0
            assert rate.decisions_per_sec > 0
            assert math.isfinite(rate.p99_ms) and rate.p99_ms >= rate.p50_ms >= 0
            assert 0.0 <= rate.drop_rate <= 1.0
            assert math.isfinite(rate.robustness_percent)

        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["benchmark"] == "repro.serve"
        assert payload["trace_tasks"] == len(light_trace)
        assert payload["transport"] == transport
        assert payload["equivalent_to_offline"] is True
        assert len(payload["rates"]) == 2
        for row in payload["rates"]:
            assert set(row) == {
                "multiplier",
                "tasks",
                "decisions",
                "rejected",
                "wall_seconds",
                "decisions_per_sec",
                "submitted_per_sec",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "max_ms",
                "drop_rate",
                "robustness_percent",
            }

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_decisions_identical_across_rates(self, small_gamma_pet, light_trace, transport):
        """Rate multipliers change pacing, never outcomes."""
        import asyncio

        from repro.serve.loadgen import _bench_one_rate

        outcomes = [
            asyncio.run(
                _bench_one_rate(
                    small_gamma_pet,
                    light_trace,
                    heuristic_name="PAMF",
                    seed=5,
                    rate=rate,
                    time_unit_seconds=0.001,
                    sim_config=None,
                    transport=transport,
                )
            )
            for rate in (100.0, 10_000.0)
        ]
        maps = [decision_map(outcome.decisions) for outcome in outcomes]
        assert maps[0] == maps[1]
        # The full decision payloads (minus wall-clock latency stamps) match
        # too: same events in the same stream order.
        def strip(events):
            return [
                {k: v for k, v in event.items() if k != "latency_s"}
                for event in events
            ]

        assert strip(outcomes[0].decisions) == strip(outcomes[1].decisions)

    def test_empty_rates_rejected(self, small_gamma_pet, light_trace):
        with pytest.raises(ValueError):
            run_bench(
                small_gamma_pet,
                light_trace,
                heuristic_name="PAMF",
                pet_kind="small",
                seed=5,
                rates=(),
            )

    def test_skipping_offline_check_leaves_flag_unset(self, small_gamma_pet, light_trace):
        report = run_bench(
            small_gamma_pet,
            light_trace,
            heuristic_name="PAMF",
            pet_kind="small",
            seed=5,
            rates=(2000.0,),
            check_offline=False,
        )
        assert report.equivalent_to_offline is None

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_overload_rejects_yet_accepted_subset_matches_offline(
        self, small_gamma_pet, small_trace, transport
    ):
        """A four-slot inbox at 5000x turns submissions away with
        accepted=false, and the stream of the accepted subset still equals
        its offline replay."""
        report = run_bench(
            small_gamma_pet,
            small_trace,
            heuristic_name="PAMF",
            pet_kind="small",
            seed=5,
            rates=(5000.0,),
            inbox_limit=4,
            transport=transport,
        )
        [rate] = report.rates
        assert rate.rejected > 0
        assert rate.tasks == len(small_trace)
        assert report.equivalent_to_offline is True
        assert math.isfinite(rate.p99_ms)
