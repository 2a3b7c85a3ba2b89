"""bench — the repo's committed perf ledger (see ``bench/README.md``).

Five named workloads drive the public entry points of :mod:`repro`
(``HCSimulator.run``, ``repro.cli serve run`` over its JSON-lines socket,
``run_sweep``) and report end-to-end metrics from untraced repetitions plus
a per-layer table from one traced repetition.  ``BENCHMARK.json`` at the
repo root names the metrics and the four workloads its driver holds to
their bounds (``sweep-fig7`` is the ledger's alone); ``python -m bench`` is
the one command that prints them.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout the benchmark lives in (``bench/`` sits directly under it).
ROOT = Path(__file__).resolve().parent.parent

#: Everything the benchmark writes (result files, Chrome traces, sockets,
#: sweep caches) stays under this git-ignored directory of the checkout.
RESULTS_DIR = ROOT / "bench" / "results"

SCHEMA_VERSION = 1


def ensure_repro_importable() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` when ``repro`` is not installed."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
        import repro  # noqa: F401
