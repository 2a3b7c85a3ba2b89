"""Spans recorded from ``bench/`` around each layer's public surface.

The traced repetition wraps the objects the engine already hands around —
the heuristic, the ``context.state`` it reads, the public
``heuristic.pruner`` — in delegating wrappers that record one span per call
through ``telemetry.add_span`` on the ``perf_counter_ns`` clock the program's
own spans (``engine.mapping_event.*``, ``score_table.*``, ``kernel.*``) use.
All spans land in the same ``telemetry.spans`` list; :func:`span_totals`
rebuilds the call tree from interval containment (the run is single
threaded) and gives every span name its total and *self* time — duration
minus the part covered by child spans.  Nothing under ``src/`` is touched
and the wrappers only forward calls, so a traced repetition takes exactly
the decisions of an untraced one (checked by every workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

#: Root span every workload opens around its traced in-process repetition.
ROOT_SPAN = "engine.run"

STATE_QUERY_SPANS = (
    "state.availability",
    "state.availability_batch",
    "state.chain",
    "state.prune_prefix_meta",
)
STATE_EXCLUDING_SPAN = "state.availability_excluding"
PRUNER_SPANS = (
    "pruning.observe_mapping_event",
    "pruning.select_queue_drops",
    "pruning.should_defer",
)
MAP_TASKS_SPAN = "heuristics.map_tasks"


class _Timed:
    """Delegating wrapper: named methods are timed, everything else forwards."""

    _timed_methods: tuple[str, ...] = ()
    _prefix = ""

    def __init__(self, inner, telemetry) -> None:
        self.inner = inner
        self._telemetry = telemetry
        for method in self._timed_methods:
            setattr(self, method, self._wrap(f"{self._prefix}.{method}", getattr(inner, method)))

    def _wrap(self, span_name: str, call):
        add_span = self._telemetry.add_span

        def timed(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return call(*args, **kwargs)
            finally:
                add_span(span_name, start, perf_counter_ns() - start)

        return timed

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TimedState(_Timed):
    """``SystemState`` stand-in substituted for ``context.state``."""

    _prefix = "state"
    _timed_methods = (
        "availability",
        "availability_batch",
        "availability_excluding",
        "chain",
        "prune_prefix_meta",
    )


class TimedPruner(_Timed):
    """``Pruner`` stand-in assigned to the public ``heuristic.pruner``."""

    _prefix = "pruning"
    _timed_methods = ("observe_mapping_event", "select_queue_drops", "should_defer")


class TimedHeuristic:
    """``MappingHeuristicProtocol`` wrapper timing ``map_tasks``.

    Also the place the traced run counts from: it sees every mapping
    context and decision, with or without an ``EngineObserver`` slot free
    (``SchedulerCore`` occupies the engine's).
    """

    def __init__(self, inner, telemetry) -> None:
        self.inner = inner
        self.name = inner.name
        self._telemetry = telemetry
        self._state: TimedState | None = None
        self.mapping_events = 0
        self.useful_events = 0
        self.assignments = 0
        if hasattr(inner, "pruner"):
            inner.pruner = TimedPruner(inner.pruner, telemetry)

    def reset(self) -> None:
        self.inner.reset()

    def map_tasks(self, context):
        state = context.state
        if state is not None:
            if self._state is None or self._state.inner is not state:
                self._state = TimedState(state, self._telemetry)
            context.state = self._state
        start = perf_counter_ns()
        decision = self.inner.map_tasks(context)
        self._telemetry.add_span(MAP_TASKS_SPAN, start, perf_counter_ns() - start)
        self.mapping_events += 1
        self.assignments += len(decision.assignments)
        if decision.assignments or decision.queue_drops or decision.deferrals:
            self.useful_events += 1
        return decision


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------
@dataclass
class SpanTotal:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


def span_totals(spans) -> dict[str, SpanTotal]:
    """Per-name count, total and self time of ``(name, start, duration, attrs)`` spans.

    A span's parent is the innermost span whose interval contains it; its
    self time is its duration minus its direct children's durations.
    """
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    totals: dict[str, SpanTotal] = {}
    stack: list[list] = []  # [name, end_ns, child_ns, duration_ns]

    def close(entry) -> None:
        name, _, child_ns, duration_ns = entry
        totals[name].self_ns += max(0, duration_ns - child_ns)

    for name, start_ns, duration_ns, _ in ordered:
        end_ns = start_ns + duration_ns
        while stack and stack[-1][1] <= start_ns:
            close(stack.pop())
        # A span sticking out of its would-be parent (clock granularity on
        # back-to-back stamps) is clipped to it rather than double counted.
        if stack:
            stack[-1][2] += min(end_ns, stack[-1][1]) - start_ns
        entry = totals.setdefault(name, SpanTotal())
        entry.count += 1
        entry.total_ns += duration_ns
        stack.append([name, end_ns, 0, duration_ns])
    while stack:
        close(stack.pop())
    return totals


def layer_metrics(
    telemetry, heuristics: list[TimedHeuristic], *, tasks: int, untraced_s: float
) -> dict[str, float]:
    """The per-layer table of one traced repetition (seconds and counts).

    ``tasks`` is what the repetition processed and ``untraced_s`` the host
    time of the same repetition without tracing (for ``trace.overhead_pct``).
    """
    totals = span_totals(telemetry.spans)

    def total_s(*names: str) -> float:
        return sum(totals[n].total_ns for n in names if n in totals) * 1e-9

    def self_s(*names: str) -> float:
        return sum(totals[n].self_ns for n in names if n in totals) * 1e-9

    def count(*names: str) -> int:
        return sum(totals[n].count for n in names if n in totals)

    def named(prefix: str) -> list[str]:
        return [n for n in totals if n.startswith(prefix)]

    root_s = total_s(ROOT_SPAN)
    mapping = named("engine.mapping_event.")
    kernels = named("kernel.")
    mapping_events = sum(h.mapping_events for h in heuristics)
    useful = sum(h.useful_events for h in heuristics)
    queries = count(*STATE_QUERY_SPANS)
    counters = telemetry.counters
    return {
        "engine.events": float(
            sum(counters.get(f"engine.events.{kind}", 0) for kind in ("arrival", "finish", "marker"))
        ),
        "engine.mapping_events": float(mapping_events),
        "engine.self_s": self_s(ROOT_SPAN, *mapping),
        "engine.us_per_mapping_event": (
            total_s(*mapping) / mapping_events * 1e6 if mapping_events else 0.0
        ),
        "heuristics.map_tasks_s": total_s(MAP_TASKS_SPAN),
        "heuristics.self_s": self_s(MAP_TASKS_SPAN),
        "heuristics.assignments": float(sum(h.assignments for h in heuristics)),
        "heuristics.useful_event_share": useful / mapping_events if mapping_events else 0.0,
        "score_table.fill_s": total_s("score_table.fill"),
        "score_table.rescore_s": total_s("score_table.rescore"),
        "score_table.self_s": self_s("score_table.fill", "score_table.rescore"),
        "score_table.fills": float(count("score_table.fill")),
        "score_table.dirty_columns": float(counters.get("score_table.dirty_columns", 0)),
        "state.query_s": total_s(*STATE_QUERY_SPANS),
        "state.queries": float(queries),
        "state.us_per_query": total_s(*STATE_QUERY_SPANS) / queries * 1e6 if queries else 0.0,
        "state.excluding_s": total_s(STATE_EXCLUDING_SPAN),
        "state.excluding_calls": float(count(STATE_EXCLUDING_SPAN)),
        "state.self_s": self_s(*STATE_QUERY_SPANS, STATE_EXCLUDING_SPAN),
        "pruning.busy_s": total_s(*PRUNER_SPANS),
        "pruning.self_s": self_s(*PRUNER_SPANS),
        "pruning.select_drops_s": total_s("pruning.select_queue_drops"),
        "pruning.deferrals": float(counters.get("engine.deferrals", 0)),
        "pruning.deferrals_per_task": counters.get("engine.deferrals", 0) / tasks,
        "pruning.proactive_drops": float(counters.get("engine.proactive_drops", 0)),
        "kernel.busy_s": total_s(*kernels),
        "kernel.calls": float(count(*kernels)),
        "trace.root_s": root_s,
        "trace.overhead_pct": (root_s / untraced_s - 1.0) * 100.0,
        "trace.attributed_share": 1.0 - self_s(ROOT_SPAN) / root_s if root_s else 0.0,
        "trace.spans": float(len(telemetry.spans)),
        "trace.dropped_spans": float(telemetry.dropped_spans),
    }
