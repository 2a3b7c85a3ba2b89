"""repro.serve — online scheduler service over the incremental engine.

The paper's decision engine only ever ran in batch replay; this package
promotes it to a long-running admission service over the one
heterogeneous system the PET describes:

* :mod:`repro.serve.service` — :class:`SchedulerCore` (synchronous
  externally-clocked admission engine with an in-process ``submit()`` API)
  and :class:`SchedulerService` (one asyncio admission loop over a Unix
  socket or TCP, streaming per-task decisions to every connected client,
  with a bounded inbox that rejects submissions under overload);
* :mod:`repro.serve.metrics` — :class:`ServiceMetrics` counters plus a
  fixed-size log-bucketed admission-latency histogram (built on
  :class:`repro.obs.LogBucketHistogram`, bounded memory at any uptime);
* :mod:`repro.serve.loadgen` — trace replay at a wall-clock arrival-rate
  multiplier and the ``repro serve bench`` throughput/latency harness
  (either transport, with the overload rejection curve);
* :mod:`repro.serve.protocol` — the JSON-lines wire format and endpoint
  notation (``unix:PATH`` / ``tcp:HOST:PORT``).

Virtual time is *externally clocked*: every submission carries its arrival
instant in trace time units and the engine's clock advances with the
submission watermark.  That is what makes serving exactly reproducible —
a trace streamed through the service (at any wall-clock rate) yields
decisions bit-identical to an offline :meth:`HCSimulator.run` of the same
trace, pinned by :func:`repro.serve.service.decision_map` /
:func:`offline_decision_map` and the replay-equivalence test suite.
"""

from .loadgen import (
    BenchReport,
    RateReport,
    ReplayOutcome,
    replay_trace,
    run_bench,
    slice_trace,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .protocol import (
    decision_to_payload,
    decode_line,
    encode_line,
    format_endpoint,
    open_endpoint,
    parse_endpoint,
    spec_from_payload,
    spec_to_payload,
)
from .service import (
    Decision,
    SchedulerCore,
    SchedulerService,
    decision_map,
    offline_decision_map,
)

__all__ = [
    "BenchReport",
    "Decision",
    "LatencyHistogram",
    "RateReport",
    "ReplayOutcome",
    "SchedulerCore",
    "SchedulerService",
    "ServiceMetrics",
    "decision_map",
    "decision_to_payload",
    "decode_line",
    "encode_line",
    "format_endpoint",
    "offline_decision_map",
    "open_endpoint",
    "parse_endpoint",
    "replay_trace",
    "run_bench",
    "slice_trace",
    "spec_from_payload",
    "spec_to_payload",
]
