"""Persisting experiment results.

:meth:`~repro.experiments.figures.FigureResult.save` writes a figure's rows
through these as CSV/JSON artefacts, so runs leave a machine-readable
record next to the printed tables (the habit the paper's
"30 trials, mean and 95% CI" methodology implies).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

__all__ = ["rows_to_csv", "rows_to_json"]


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]], path: str | Path) -> Path:
    """Write rows to a CSV file with the given header."""
    if not headers:
        raise ValueError("at least one header column is required")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row length {len(row)} does not match header length {len(headers)}"
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))
    return path


def rows_to_json(headers: Sequence[str], rows: Sequence[Sequence[object]], path: str | Path) -> Path:
    """Write rows to a JSON file as a list of objects keyed by header."""
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row length {len(row)} does not match header length {len(headers)}"
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [dict(zip(headers, row)) for row in rows]
    path.write_text(json.dumps(records, indent=2, default=float))
    return path
