"""Process-local telemetry: counters, gauges, timing histograms, spans.

The registry is deliberately tiny and dependency-free (stdlib only — it is
imported by the hottest modules in the tree and must never create an import
cycle).  Two implementations share one duck-typed surface:

:class:`NullTelemetry`
    The process default.  Every method is a no-op and ``span()`` returns a
    shared singleton context manager, so instrumentation left inline in hot
    paths costs one attribute lookup and one call — the micro-bench gate in
    ``benchmarks/test_bench_micro.py`` pins this disabled overhead under 2%
    of the per-event loop and the ``ScoreTable`` fill.

:class:`Telemetry`
    The recording registry: monotone **counters**, last-value **gauges**,
    bounded log-bucketed **timing histograms** (one per metric name, fixed
    memory), and a bounded list of **spans** — named ``perf_counter_ns``
    intervals that export as a Chrome trace-event timeline
    (:func:`repro.obs.export.chrome_trace_events`).

Determinism contract
--------------------
Telemetry observes, it never steers: no instrumented call site reads a
value back out of the registry, the registry never touches RNG state, and
obs configuration never enters sweep cache keys (pinned by
``tests/obs/test_determinism.py``).  Enabling tracing therefore cannot
change a single decision of a seeded run.

Activation is process-local: :func:`active` returns the current registry
(the null one unless something installed a recorder), :func:`set_active`
swaps it, and :class:`use_telemetry` scopes a swap.  Engine instances read
the active registry when a run/stream begins, so instrumentation is scoped
per run, not per call.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Mapping

from .histogram import LogBucketHistogram

__all__ = [
    "NullTelemetry",
    "Telemetry",
    "NULL_TELEMETRY",
    "active",
    "set_active",
    "use_telemetry",
]

#: Default cap on recorded spans; past it spans are counted, not stored.
DEFAULT_MAX_SPANS = 1_000_000

#: Timing histograms span 1ns .. 10**4 s (then overflow), 16 buckets/decade.
_TIMING_LO_S = 1e-9
_TIMING_HI_S = 1e4


class _NullSpan:
    """Shared no-op context manager returned by :meth:`NullTelemetry.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled registry: every operation is a no-op.

    Stateless and shared (:data:`NULL_TELEMETRY`); instrumented call sites
    check :attr:`enabled` only when they would otherwise *build* something
    (an args dict, a wrapper object) — plain ``count``/``span`` calls are
    cheap enough to leave unguarded.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, start_ns: int, duration_ns: int, **attrs) -> None:
        return None

    def count(self, name: str, value: int = 1) -> None:
        return None

    def set_count(self, name: str, value: int) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe_ns(self, name: str, duration_ns: int) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


class _Span:
    """One live ``with``-scoped span; records itself on exit."""

    __slots__ = ("_telemetry", "name", "attrs", "start_ns")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict | None) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.start_ns = 0

    def __enter__(self) -> "_Span":
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter_ns()
        self._telemetry._record_span(
            self.name, self.start_ns, end - self.start_ns, self.attrs
        )


class Telemetry:
    """The recording registry (see the module docstring)."""

    __slots__ = ("counters", "gauges", "timings", "spans", "dropped_spans",
                 "max_spans", "epoch_ns")

    enabled = True

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 0:
            raise ValueError("max_spans must be non-negative")
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.timings: dict[str, LogBucketHistogram] = {}
        #: Recorded spans as ``(name, start_ns, duration_ns, attrs)`` tuples;
        #: start offsets are relative to :attr:`epoch_ns`.
        self.spans: list[tuple[str, int, int, dict | None]] = []
        self.dropped_spans = 0
        self.max_spans = int(max_spans)
        #: ``perf_counter_ns`` at construction — the timeline's time zero.
        self.epoch_ns = perf_counter_ns()

    # ------------------------------------------------------------------
    # Recording surface (mirrors NullTelemetry).
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing its body as one named span."""
        return _Span(self, name, attrs or None)

    def add_span(self, name: str, start_ns: int, duration_ns: int, **attrs) -> None:
        """Record a span retrospectively from explicit ``perf_counter_ns`` stamps."""
        self._record_span(name, start_ns, duration_ns, attrs or None)

    def _record_span(
        self, name: str, start_ns: int, duration_ns: int, attrs: dict | None
    ) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start_ns - self.epoch_ns, duration_ns, attrs))
        else:
            self.dropped_spans += 1
        self.observe_ns(name, duration_ns)

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to a monotone counter."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def set_count(self, name: str, value: int) -> None:
        """Set a counter to an absolute total (idempotent publishing)."""
        self.counters[name] = int(value)

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time measurement."""
        self.gauges[name] = float(value)

    def observe_ns(self, name: str, duration_ns: int) -> None:
        """Record one duration (nanoseconds) into a bounded timing histogram."""
        hist = self.timings.get(name)
        if hist is None:
            hist = LogBucketHistogram(lo=_TIMING_LO_S, hi=_TIMING_HI_S)
            self.timings[name] = hist
        hist.record(duration_ns * 1e-9)

    # ------------------------------------------------------------------
    def merge_counts(self, counts: Mapping[str, int]) -> None:
        """Fold a mapping of counter totals in (additive)."""
        for name, value in counts.items():
            self.count(name, int(value))


# ----------------------------------------------------------------------
# Process-local activation.
# ----------------------------------------------------------------------
_ACTIVE: Telemetry | NullTelemetry = NULL_TELEMETRY


def active() -> Telemetry | NullTelemetry:
    """The telemetry registry instrumented call sites record into."""
    return _ACTIVE


def set_active(telemetry: Telemetry | NullTelemetry | None) -> Telemetry | NullTelemetry:
    """Install (and return) the process-wide registry; ``None`` = disabled."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


class use_telemetry:
    """Scope an active registry, restoring the previous one on exit.

    >>> tel = Telemetry()
    >>> with use_telemetry(tel):
    ...     active() is tel
    True
    """

    __slots__ = ("_telemetry", "_previous")

    def __init__(self, telemetry: Telemetry | NullTelemetry | None) -> None:
        self._telemetry = telemetry
        self._previous: Telemetry | NullTelemetry | None = None

    def __enter__(self) -> Telemetry | NullTelemetry:
        self._previous = set_active(self._telemetry)
        return active()

    def __exit__(self, *exc_info) -> None:
        set_active(self._previous)

