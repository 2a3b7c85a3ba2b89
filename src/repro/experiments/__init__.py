"""Experiment drivers regenerating every figure of the paper's evaluation."""

from .config import (
    ExperimentConfig,
    ExperimentScale,
    OVERSUBSCRIPTION_LEVELS,
    TRANSCODING_LEVELS,
    transcoding_workload_for_level,
    workload_for_level,
)
from .fig4_lambda import Fig4Result, run_fig4
from .fig5_thresholds import Fig5Result, run_fig5
from .fig6_fairness import Fig6Result, run_fig6
from .fig7_robustness import Fig7Result, run_fig7
from .fig8_cost import Fig8Result, run_fig8
from .fig9_transcoding import Fig9Result, run_fig9
from .reporting import rows_to_csv, rows_to_json, save_figure_result
from .runner import SeriesResult, TrialMetrics

__all__ = [
    "ExperimentConfig",
    "ExperimentScale",
    "OVERSUBSCRIPTION_LEVELS",
    "TRANSCODING_LEVELS",
    "workload_for_level",
    "transcoding_workload_for_level",
    "SeriesResult",
    "TrialMetrics",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "rows_to_csv",
    "rows_to_json",
    "save_figure_result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
]
