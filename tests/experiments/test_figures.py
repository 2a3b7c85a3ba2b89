"""Smoke tests for every figure driver (tiny scale).

These are integration tests of the whole stack: PET builders, workload
generation, simulator, heuristics, pruning and the experiment harness.  They
use a deliberately tiny :class:`ExperimentConfig` so the full file runs in
tens of seconds; the structural assertions (keys present, values in range)
are what matter here — the paper-shape assertions live in
``tests/test_paper_claims.py`` and the benchmark harness.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    FigureResult,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
)

REFERENCE_TRACE = Path(__file__).resolve().parents[2] / "examples" / "transcoding_660.trace.json"
TINY = ExperimentConfig(trials=1, seed=5, warmup_tasks=10, cooldown_tasks=10, task_scale=0.3)


@pytest.fixture(scope="module")
def fig7_result():
    return run_fig7(TINY, levels=("34k",), heuristics=("PAM", "MM"))


class TestFig4:
    def test_structure_and_ranges(self):
        result = run_fig4(TINY, lambdas=(0.5, 0.9))
        assert set(result.series) == {
            (0.5, "default"),
            (0.5, "schmitt"),
            (0.9, "default"),
            (0.9, "schmitt"),
        }
        for series in result.series.values():
            assert 0.0 <= series.mean_robustness() <= 100.0
        best = max((0.5, 0.9), key=lambda lam: result.series[(lam, "schmitt")].mean_robustness())
        assert best in (0.5, 0.9)
        assert "Figure 4" in result.to_text()
        assert len(result.rows) == 2
        assert len(result.headers) == len(result.rows[0]) == 5


class TestFig5:
    def test_structure(self):
        result = run_fig5(TINY, dropping_thresholds=(0.5,), gap_step=0.2)
        defers = sorted(defer for drop, defer in result.series if drop == 0.5)
        assert defers[0] == pytest.approx(0.5)
        assert all(d <= 0.9 + 1e-9 for d in defers)
        assert "defer" in result.to_text().lower()
        for (_, _), series in result.series.items():
            assert 0.0 <= series.mean_robustness() <= 100.0

    def test_gap_step_must_be_positive(self):
        with pytest.raises(ValueError, match="gap_step"):
            run_fig5(TINY, gap_step=0.0)


class TestFig6:
    def test_structure(self):
        result = run_fig6(TINY, levels=("34k",), fairness_factors=(0.0, 0.05))
        assert sorted(factor for level, factor in result.series if level == "34k") == [0.0, 0.05]
        assert result.series[("34k", 0.05)].fairness_variance().mean >= 0.0
        assert 0.0 <= result.series[("34k", 0.0)].mean_robustness() <= 100.0
        assert "fairness" in result.to_text().lower()


class TestFig7:
    def test_structure(self, fig7_result):
        assert sorted({name for _, name in fig7_result.series}) == ["MM", "PAM"]
        assert {level for level, _ in fig7_result.series} == {"34k"}
        assert len(fig7_result.rows) == 2

    def test_pam_wins_even_at_tiny_scale(self, fig7_result):
        pam, mm = (fig7_result.series[("34k", name)].mean_robustness() for name in ("PAM", "MM"))
        assert pam >= mm


class TestFig8:
    def test_structure(self):
        result = run_fig8(TINY, levels=("34k",), heuristics=("PAM", "MM"))
        pam_cost = result.series[("34k", "PAM")].cost_per_percent().mean
        assert pam_cost > 0
        assert np.isfinite(pam_cost)
        assert "cost" in result.to_text().lower()
        assert f"{pam_cost:.3f}" in result.to_text()


class TestFig9:
    def test_structure(self):
        result = run_fig9(TINY, levels=("17.5k",), heuristics=("PAMF", "MM"))
        assert set(result.series) == {("17.5k", "PAMF"), ("17.5k", "MM")}
        assert "transcoding" in result.to_text().lower()


class TestFigureResult:
    def test_save_writes_text_csv_and_json(self, tmp_path):
        result = FigureResult(
            number=7,
            title="fake figure table",
            headers=("level", "heuristic", "robustness"),
            series={},
            rows=[["34k", "PAM", 61.5], ["34k", "MM", 24.0]],
        )
        paths = result.save(tmp_path)
        assert set(paths) == {"text", "csv", "json"}
        assert paths["text"].read_text() == result.to_text() + "\n"
        assert paths["text"].read_text().startswith("fake figure table\n")
        assert paths["csv"].name == "figure7.csv"
        assert json.loads(paths["json"].read_text())[1] == {
            "level": "34k", "heuristic": "MM", "robustness": 24.0
        }


#: Per figure: the driver, inputs with a duplicated axis value, and the same
#: inputs deduplicated by hand.
DUPLICATED = {
    "fig4": (run_fig4, dict(lambdas=(0.5, 0.5)), dict(lambdas=(0.5,))),
    "fig5": (
        run_fig5,
        dict(dropping_thresholds=(0.75, 0.75), gap_step=0.2),
        dict(dropping_thresholds=(0.75,), gap_step=0.2),
    ),
    "fig6": (
        run_fig6,
        dict(levels=("34k", "34k"), fairness_factors=(0.0, 0.0)),
        dict(levels=("34k",), fairness_factors=(0.0,)),
    ),
    "fig7": (
        run_fig7,
        dict(levels=("34k", "34k"), heuristics=("PAM", "MM", "PAM")),
        dict(levels=("34k",), heuristics=("PAM", "MM")),
    ),
    "fig8": (
        run_fig8,
        dict(levels=("34k", "34k"), heuristics=("MM", "MM")),
        dict(levels=("34k",), heuristics=("MM",)),
    ),
    "fig9": (
        run_fig9,
        dict(levels=("17.5k", "17.5k"), heuristics=("MM", "PAMF", "MM")),
        dict(levels=("17.5k",), heuristics=("MM", "PAMF")),
    ),
    "fig9-trace": (
        run_fig9,
        dict(trace=REFERENCE_TRACE, heuristics=("MM", "MM")),
        dict(trace=REFERENCE_TRACE, heuristics=("MM",)),
    ),
}


class TestDriversThroughSweep:
    """Every driver routes through repro.sweep: parallel jobs and the result
    cache must reproduce the serial figures exactly."""

    def test_fig7_parallel_matches_serial(self, fig7_result):
        parallel = run_fig7(TINY, levels=("34k",), heuristics=("PAM", "MM"), jobs=2)
        assert parallel.series.keys() == fig7_result.series.keys()
        for key, series in parallel.series.items():
            assert series.trials == fig7_result.series[key].trials

    @pytest.mark.parametrize("figure", sorted(DUPLICATED))
    def test_duplicate_inputs_collapse(self, figure):
        """A duplicated axis value runs once: one progress report per
        distinct point, and the figure of the deduplicated inputs."""
        run, duplicated, distinct = DUPLICATED[figure]
        reports = []
        result = run(TINY, progress=reports.append, **duplicated)
        expected = run(TINY, **distinct)
        assert len(reports) == len(result.series) == len(expected.series)
        assert len({report.key for report in reports}) == len(reports)
        assert list(result.series) == list(expected.series)
        assert result.rows == expected.rows
        for key, series in result.series.items():
            assert series.trials == expected.series[key].trials

    def test_fig9_cache_warm_rerun(self, tmp_path):
        reports = []
        cold = run_fig9(
            TINY,
            levels=("17.5k",),
            heuristics=("MM",),
            cache_dir=tmp_path,
            progress=reports.append,
        )
        assert [r.cached for r in reports] == [False]
        reports.clear()
        warm = run_fig9(
            TINY,
            levels=("17.5k",),
            heuristics=("MM",),
            cache_dir=tmp_path,
            progress=reports.append,
        )
        assert [r.cached for r in reports] == [True]
        assert warm.series[("17.5k", "MM")].trials == cold.series[("17.5k", "MM")].trials
