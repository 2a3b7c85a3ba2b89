"""The paper's evaluation: experiment configuration and the figures 4-9."""

from .config import (
    ExperimentConfig,
    ExperimentScale,
    OVERSUBSCRIPTION_LEVELS,
    TRANSCODING_LEVELS,
    transcoding_workload_for_level,
    workload_for_level,
)
from .figures import (
    TRACE_LEVEL_LABEL,
    FigureResult,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    trace_replay_points,
)
from .reporting import rows_to_csv, rows_to_json
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
    "FigureResult",
    "TRACE_LEVEL_LABEL",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "trace_replay_points",
    "rows_to_csv",
    "rows_to_json",
]
