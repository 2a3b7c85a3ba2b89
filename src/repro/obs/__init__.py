"""repro.obs — unified observability: metrics, span tracing, profiling.

One process-local :class:`Telemetry` registry carries every telemetry
surface in the tree: counters, gauges, bounded log-bucketed timing
histograms (:class:`LogBucketHistogram`, the same schema the serve
admission-latency metrics use), and lightweight ``perf_counter_ns`` spans
that export as a Chrome trace-event timeline.

The default registry is :data:`NULL_TELEMETRY`: every hook is a no-op, the
instrumented hot paths execute the same code bit for bit, and the disabled
overhead is pinned under 2% by ``benchmarks/test_bench_micro.py``.  Enable
recording by installing a :class:`Telemetry` (``--obs-trace`` /
``--obs-snapshot`` on the CLI, or :func:`set_active` / :class:`use_telemetry`
programmatically), run anything — a simulation, a sweep, the scheduler
service — and export with :func:`write_chrome_trace` /
:func:`write_snapshot`.

Telemetry never perturbs determinism: it observes decisions, it never
feeds them, and obs configuration never enters sweep cache keys (pinned by
``tests/obs/test_determinism.py``).
"""

from .histogram import LogBucketHistogram
from .telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    active,
    set_active,
    use_telemetry,
)
from .export import (
    chrome_trace_events,
    snapshot,
    write_chrome_trace,
    write_snapshot,
)

__all__ = [
    "LogBucketHistogram",
    "NullTelemetry",
    "Telemetry",
    "NULL_TELEMETRY",
    "active",
    "set_active",
    "use_telemetry",
    "chrome_trace_events",
    "snapshot",
    "write_chrome_trace",
    "write_snapshot",
]
