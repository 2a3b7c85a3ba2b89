"""Tests for experiment configuration and oversubscription levels."""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    OVERSUBSCRIPTION_LEVELS,
    TRANSCODING_LEVELS,
    ExperimentConfig,
    ExperimentScale,
    transcoding_workload_for_level,
    workload_for_level,
)


class TestLevels:
    def test_expected_level_labels(self):
        assert set(OVERSUBSCRIPTION_LEVELS) == {"19k", "34k"}
        assert set(TRANSCODING_LEVELS) == {"10k", "12.5k", "15k", "17.5k"}

    def test_34k_is_heavier_than_19k(self):
        assert (
            OVERSUBSCRIPTION_LEVELS["34k"].arrival_rate
            > OVERSUBSCRIPTION_LEVELS["19k"].arrival_rate
        )

    def test_transcoding_levels_monotone(self):
        rates = [TRANSCODING_LEVELS[k].arrival_rate for k in ("10k", "12.5k", "15k", "17.5k")]
        assert rates == sorted(rates)

    def test_unknown_level_rejected(self):
        with pytest.raises(KeyError):
            workload_for_level("99k")
        with pytest.raises(KeyError):
            transcoding_workload_for_level("1k")


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.trials >= 1
        assert config.queue_capacity == 6

    def test_scales(self):
        smoke = ExperimentConfig.for_scale(ExperimentScale.SMOKE)
        quick = ExperimentConfig.for_scale(ExperimentScale.QUICK)
        paper = ExperimentConfig.for_scale(ExperimentScale.PAPER)
        assert smoke.trials < quick.trials < paper.trials
        assert paper.trials == 30
        assert paper.warmup_tasks == 100

    def test_task_scale_applied(self):
        config = ExperimentConfig(task_scale=0.5)
        base = OVERSUBSCRIPTION_LEVELS["34k"]
        scaled = config.scaled_workload(base)
        assert scaled.num_tasks == round(base.num_tasks * 0.5)
        assert scaled.time_span == base.time_span

    def test_workload_for_level_uses_scale(self):
        config = ExperimentConfig(task_scale=0.25)
        assert workload_for_level("19k", config).num_tasks < OVERSUBSCRIPTION_LEVELS["19k"].num_tasks

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(warmup_tasks=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(task_scale=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_task_scale_rejected(self, value):
        with pytest.raises(ValueError, match="^task_scale must be finite"):
            ExperimentConfig(task_scale=value)
