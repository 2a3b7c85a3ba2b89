"""repro.serve — online scheduler service over the incremental engine.

The paper's decision engine only ever ran in batch replay; this package
promotes it to a long-running admission service over the one
heterogeneous system the PET describes:

* :mod:`repro.serve.service` — the offline core: :class:`SchedulerCore`
  (synchronous externally-clocked admission engine with an in-process
  ``submit()`` API) and the ``decision_map`` / ``offline_decision_map``
  replay-equivalence views.  It imports no network stack;
* :mod:`repro.serve.server` — :class:`SchedulerService`, the asyncio
  server around one core: one admission loop over a Unix socket or TCP,
  streaming per-task decisions to every connected client, with a bounded
  inbox that rejects submissions under overload;
* :mod:`repro.serve.metrics` — :class:`ServiceMetrics` counters plus a
  fixed-size log-bucketed admission-latency histogram (built on
  :class:`repro.obs.LogBucketHistogram`, bounded memory at any uptime);
* :mod:`repro.serve.loadgen` — trace replay at a wall-clock arrival-rate
  multiplier and the ``repro serve bench`` throughput/latency harness
  (either transport, with the overload rejection curve);
* :mod:`repro.serve.protocol` — the JSON-lines wire format and endpoint
  notation (``unix:PATH`` / ``tcp:HOST:PORT``).

Only the functions that open sockets load the network stack: the codec
in :mod:`~repro.serve.protocol` and :func:`~repro.serve.loadgen.slice_trace`
import without asyncio, which ``open_endpoint``, ``replay_trace`` and
``run_bench`` import when they run.

Virtual time is *externally clocked*: every submission carries its arrival
instant in trace time units and the engine's clock advances with the
submission watermark.  That is what makes serving exactly reproducible —
a trace streamed through the service (at any wall-clock rate) yields
decisions bit-identical to an offline :meth:`HCSimulator.run` of the same
trace, pinned by :func:`repro.serve.service.decision_map` /
:func:`offline_decision_map` and the replay-equivalence test suite.

The names below resolve lazily, from the submodule that defines them:
``import repro.serve.service`` loads this package first, and must not
bring the server, the protocol or the load generator in with it.
"""

from importlib import import_module

#: Resolved on first access (PEP 562), by defining submodule.
_LAZY_EXPORTS = {
    "loadgen": (
        "BenchReport",
        "RateReport",
        "ReplayOutcome",
        "replay_trace",
        "run_bench",
        "slice_trace",
    ),
    "metrics": ("LatencyHistogram", "ServiceMetrics"),
    "protocol": (
        "decision_to_payload",
        "decode_line",
        "encode_line",
        "format_endpoint",
        "open_endpoint",
        "parse_endpoint",
        "spec_from_payload",
        "spec_to_payload",
    ),
    "server": ("SchedulerService",),
    "service": (
        "Decision",
        "SchedulerCore",
        "decision_map",
        "offline_decision_map",
    ),
}


def __getattr__(name: str):
    for submodule, exports in _LAZY_EXPORTS.items():
        if name == submodule or name in exports:
            module = import_module(f"{__name__}.{submodule}")
            return module if name == submodule else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(name for exports in _LAZY_EXPORTS.values() for name in exports)
