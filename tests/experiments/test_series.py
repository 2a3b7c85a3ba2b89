"""Every figure is pinned to a committed artefact, point by point.

``series/fig{4..9}.json`` and ``series/fig9_trace.json`` were written by
``scripts/make_series.py`` at the commit before the six per-figure driver
modules became one (``repro.experiments.figures``): at the smoke scale, each
figure's sweep points in order (label and cache key) and the exact
``.txt``/``.csv``/``.json`` text that ``--output-dir`` writes.  A match
proves a change to the drivers runs the same points under the same cache
keys and prints the same tables, not merely that two paths inside the
current tree agree.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "make_series", REPO_ROOT / "scripts" / "make_series.py"
)
make_series = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_series)


def test_every_figure_is_pinned():
    assert sorted(path.stem for path in make_series.SERIES_DIR.glob("*.json")) == sorted(
        make_series.RUNS
    )
    assert sorted({number for number, _ in make_series.RUNS.values()}) == list(range(4, 10))


@pytest.mark.parametrize("name", sorted(make_series.RUNS))
def test_figure_matches_committed_series(name):
    number, trace = make_series.RUNS[name]
    committed = (make_series.SERIES_DIR / f"{name}.json").read_text()
    assert make_series.render(make_series.series_record(number, trace)) == committed
