"""Shared vocabulary of the workloads: options, samples, outcomes, statistics."""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field

#: The system under test is the paper's 12x8 SPEC machine set at one fixed
#: PET seed; the benchmark seed only drives the inputs fed to it (traces,
#: execution-time draws), so seeds differ in workload, not in hardware.
PET_SEED = 2019
HEURISTIC = "PAMF"

#: The gated tail of every latency metric (``latency_p90_ms``).  One disturbed
#: piece in a hundred moves a p99 and the shared host disturbs more than
#: that, so p99 is kept in the run record (``info``) and p90 is what a later
#: PR is held to — see README "Reading the numbers".
TAIL = 90


@dataclass(frozen=True)
class Options:
    """What one benchmark invocation was asked for."""

    seed: int = 2019
    #: Timed-measurement budget per workload (``run_seconds`` of BENCHMARK.json).
    seconds: float = 26.0
    #: Tiny sizes, one repetition: the tier-1 smoke test.
    smoke: bool = False
    #: Explicit kernel backend (``None`` = the numpy reference).
    kernel_backend: str | None = None


@dataclass
class Sample:
    """One metric of one workload: the reported value plus what it came from.

    Host-time metrics report the noise floor over the repetitions (see
    :func:`floor` and README "Reading the numbers"); ``samples`` keeps each
    repetition's own reading so the ledger can print median and quartiles
    beside it.
    """

    value: float
    unit: str
    samples: tuple[float, ...] = ()

    def payload(self, *, full: bool = False) -> dict:
        out: dict = {"value": self.value, "unit": self.unit}
        if full and self.samples:
            q1, median, q3 = quartiles(self.samples)
            out.update(n=len(self.samples), q1=q1, median=median, q3=q3, samples=list(self.samples))
        return out


@dataclass
class Outcome:
    """Everything one (workload, traced?) measurement produced."""

    metrics: dict[str, Sample] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Named correctness checks; any ``False`` fails the run.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Run-record extras (raw timings, generator lateness, signatures).
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def floor(repetitions) -> list[float]:
    """Element-wise fastest time over repetitions of the same deterministic work.

    Every repetition replays identical inputs, so piece ``i`` (a scheduling
    step, a submission) is the same work each time and differs only by what
    the host added to it.  Taking each piece's minimum estimates the run on
    a quiet host from a run on a shared one — see README "Reading the
    numbers".
    """
    return [min(times) for times in zip(*repetitions)]


def floor_sample(unit: str, repetitions, reduce) -> Sample:
    """``reduce`` of the element-wise floor, beside ``reduce`` of each repetition."""
    repetitions = list(repetitions)
    return Sample(reduce(floor(repetitions)), unit, tuple(reduce(r) for r in repetitions))


def best_time(unit: str, times) -> Sample:
    times = tuple(times)
    return Sample(min(times), unit, times)


def signature(decision_map: dict) -> str:
    """Stable digest of a per-task outcome map (``offline_decision_map`` shape)."""
    return hashlib.blake2s(repr(sorted(decision_map.items())).encode()).hexdigest()


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child), MiB."""
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / scale


def terminal_failures(tasks) -> int:
    """Tasks that did not end in exactly one terminal state."""
    return sum(1 for task in tasks if not task.is_terminal)
