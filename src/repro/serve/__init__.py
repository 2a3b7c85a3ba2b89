"""repro.serve — online scheduler service over the incremental engine.

The paper's decision engine only ever ran in batch replay; this package
promotes it to a long-running admission service:

* :mod:`repro.serve.hub` — the JSON-lines connection hub both service
  topologies stand on: endpoint bind (Unix socket or TCP), the per-client
  read loop, the client set with send/broadcast, the fatal-failure report
  and the shared shutdown steps;
* :mod:`repro.serve.service` — :class:`SchedulerCore` (synchronous
  externally-clocked admission engine with an in-process ``submit()`` API)
  and :class:`SchedulerService` (the single-process topology: one asyncio
  admission loop streaming per-task decisions to every connected client,
  with a bounded inbox that rejects submissions under overload);
* :mod:`repro.serve.workers` — :class:`ShardedSchedulerService`, a
  front-end that shards submissions by task type across N engine-worker
  processes and merges their decisions into one globally-sequenced stream,
  and :func:`build_service`, the one place either topology is built;
* :mod:`repro.serve.metrics` — :class:`ServiceMetrics` counters plus a
  fixed-size log-bucketed admission-latency histogram (built on
  :class:`repro.obs.LogBucketHistogram`, bounded memory at any uptime),
  and :func:`merge_snapshots`, the sharded stats view's exact merge of
  the shards' histogram payloads;
* :mod:`repro.serve.loadgen` — trace replay at a wall-clock arrival-rate
  multiplier and the ``repro serve bench`` throughput/latency harness
  (any transport/topology, with the overload rejection curve);
* :mod:`repro.serve.protocol` — the JSON-lines wire format and endpoint
  notation (``unix:PATH`` / ``tcp:HOST:PORT``).

Virtual time is *externally clocked*: every submission carries its arrival
instant in trace time units and the engine's clock advances with the
submission watermark.  That is what makes serving exactly reproducible —
a trace streamed through the service (at any wall-clock rate) yields
decisions bit-identical to an offline :meth:`HCSimulator.run` of the same
trace, pinned by :func:`repro.serve.service.decision_map` /
:func:`offline_decision_map` and the replay-equivalence test suite.  Under
sharding the contract holds *per shard*: each worker's stream equals the
offline replay of exactly its task subsequence (seeded with
:func:`shard_seed`).
"""

from .loadgen import (
    BenchReport,
    RateReport,
    ReplayOutcome,
    replay_trace,
    run_bench,
    slice_trace,
)
from .metrics import LatencyHistogram, ServiceMetrics, merge_snapshots
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
from .workers import (
    ShardSpec,
    ShardedSchedulerService,
    build_service,
    build_shard_specs,
    partition_trace,
    shard_for,
    shard_seed,
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
    "ShardSpec",
    "ShardedSchedulerService",
    "build_service",
    "build_shard_specs",
    "decision_map",
    "decision_to_payload",
    "decode_line",
    "encode_line",
    "format_endpoint",
    "merge_snapshots",
    "offline_decision_map",
    "open_endpoint",
    "parse_endpoint",
    "partition_trace",
    "replay_trace",
    "run_bench",
    "shard_for",
    "shard_seed",
    "slice_trace",
    "spec_from_payload",
    "spec_to_payload",
]
