"""Workload generation: arrivals, deadlines, and full traces (Section VI-B)."""

from .arrivals import (
    gamma_interarrival_times,
    generate_arrival_times,
    spread_tasks_over_types,
)
from .deadlines import DeadlineModel
from .generator import WorkloadConfig, WorkloadTrace, generate_workload
from .scale import (
    SCALE_TRACE_SEED,
    SCALE_TRACE_TASKS,
    ScaleTraceConfig,
    generate_scale_trace,
    scale_trace,
)
from .spec import TaskSpec
from .traces import (
    file_content_hash,
    load_trace,
    save_trace,
    trace_content_hash,
    trace_from_dict,
    trace_to_dict,
)
from .transcoding import (
    TRACE_BUILDERS,
    TranscodingTraceConfig,
    build_named_trace,
    generate_transcoding_trace,
    reference_transcoding_trace,
)

__all__ = [
    "TaskSpec",
    "WorkloadConfig",
    "WorkloadTrace",
    "generate_workload",
    "DeadlineModel",
    "gamma_interarrival_times",
    "generate_arrival_times",
    "spread_tasks_over_types",
    "save_trace",
    "load_trace",
    "trace_to_dict",
    "trace_from_dict",
    "trace_content_hash",
    "file_content_hash",
    "TRACE_BUILDERS",
    "TranscodingTraceConfig",
    "build_named_trace",
    "generate_transcoding_trace",
    "reference_transcoding_trace",
    "ScaleTraceConfig",
    "generate_scale_trace",
    "scale_trace",
    "SCALE_TRACE_TASKS",
    "SCALE_TRACE_SEED",
]
