"""Regenerate (or verify) the pinned per-figure series of the evaluation.

``tests/experiments/series/fig{4..9}.json`` record, for every figure driver
at ``ExperimentConfig.for_scale(ExperimentScale.SMOKE)`` and its default
axes, the ordered label and cache key of each sweep point and the exact
``.txt``/``.csv``/``.json`` text that ``repro figure N --output-dir`` writes.
``fig9_trace.json`` pins figure 9 replaying the shipped
``examples/transcoding_660.trace.json`` the same way.  A change that claims
"same figures" (a refactor of the drivers, a faster kernel) is checked
against these files in tier-1 (``tests/experiments/test_series.py``): same
points in the same order, same cache keys, same tables to the last digit.

Usage::

    python scripts/make_series.py [--check]

``--check`` verifies the committed files without writing (exit status 1 on
mismatch).  Rewrite them only when a change is *meant* to move a figure.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import experiments  # noqa: E402
from repro.experiments.config import ExperimentConfig, ExperimentScale  # noqa: E402

SERIES_DIR = REPO_ROOT / "tests" / "experiments" / "series"
REFERENCE_TRACE = "examples/transcoding_660.trace.json"

#: Fixture name -> (figure number, trace path relative to the repo root).
RUNS: dict[str, tuple[int, str | None]] = {
    **{f"fig{number}": (number, None) for number in range(4, 10)},
    "fig9_trace": (9, REFERENCE_TRACE),
}


def series_record(number: int, trace: str | None = None) -> dict[str, object]:
    """Points and written artefacts of one smoke-scale figure run."""
    config = ExperimentConfig.for_scale(ExperimentScale.SMOKE)
    reports = []
    extra = {} if trace is None else {"trace": REPO_ROOT / trace}
    result = getattr(experiments, f"run_fig{number}")(
        config, progress=reports.append, **extra
    )
    with tempfile.TemporaryDirectory() as scratch:
        paths = result.save(scratch)
        files = {path.name: path.read_bytes().decode() for path in paths.values()}
    reports.sort(key=lambda report: report.index)
    return {
        "figure": number,
        "trace": trace,
        "points": [{"label": r.label, "key": r.key} for r in reports],
        "files": files,
    }


def render(record: dict[str, object]) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed series instead of writing them",
    )
    args = parser.parse_args(argv)

    drifted = []
    for name, (number, trace) in RUNS.items():
        path = SERIES_DIR / f"{name}.json"
        text = render(series_record(number, trace))
        if args.check:
            if not path.exists() or path.read_text() != text:
                drifted.append(name)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    if drifted:
        print(f"figure series drifted: {drifted}")
        return 1
    if args.check:
        print(f"figure series OK ({len(RUNS)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
