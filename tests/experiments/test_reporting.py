"""Tests for experiment-result persistence (CSV/JSON/text artefacts)."""

from __future__ import annotations

import csv
import json

import pytest

from repro.experiments.reporting import rows_to_csv, rows_to_json


#: A two-row figure table.
ROWS = [["34k", "PAM", 61.5], ["34k", "MM", 24.0]]


class TestRowsToCsv:
    def test_writes_header_and_rows(self, tmp_path):
        path = rows_to_csv(["level", "heuristic", "robustness"], ROWS, tmp_path / "out.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["level", "heuristic", "robustness"]
        assert rows[1][:2] == ["34k", "PAM"]
        assert len(rows) == 3

    def test_creates_parent_directories(self, tmp_path):
        path = rows_to_csv(["a"], [[1]], tmp_path / "deep" / "dir" / "out.csv")
        assert path.exists()

    def test_row_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv(["a", "b"], [[1]], tmp_path / "out.csv")

    def test_empty_header_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([], [], tmp_path / "out.csv")


class TestRowsToJson:
    def test_records_keyed_by_header(self, tmp_path):
        path = rows_to_json(["level", "heuristic", "robustness"], ROWS, tmp_path / "out.json")
        records = json.loads(path.read_text())
        assert records[0]["heuristic"] == "PAM"
        assert records[1]["robustness"] == 24.0

    def test_row_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_json(["a"], [[1, 2]], tmp_path / "out.json")

