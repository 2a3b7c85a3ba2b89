"""Tests for the PET matrix container."""

from __future__ import annotations

import pytest

from repro.core.pmf import DiscretePMF
from repro.pet.matrix import PETMatrix


class TestConstruction:
    def test_shape_validation_rows(self, tiny_pet):
        with pytest.raises(ValueError):
            PETMatrix(("a", "b"), tiny_pet.machine_names, tiny_pet.pmfs)

    def test_shape_validation_columns(self, tiny_pet):
        bad_rows = tuple(row[:1] for row in tiny_pet.pmfs)
        with pytest.raises(ValueError):
            PETMatrix(tiny_pet.task_types, tiny_pet.machine_names, bad_rows)

    def test_entries_must_be_pmfs(self, tiny_pet):
        bad = tuple(
            tuple("not a pmf" for _ in row) for row in tiny_pet.pmfs
        )
        with pytest.raises(TypeError):
            PETMatrix(tiny_pet.task_types, tiny_pet.machine_names, bad)

    def test_entries_must_be_normalised(self, tiny_pet):
        sub = DiscretePMF.from_impulses({1: 0.5})
        rows = tuple(tuple(sub for _ in row) for row in tiny_pet.pmfs)
        with pytest.raises(ValueError):
            PETMatrix(tiny_pet.task_types, tiny_pet.machine_names, rows)

    def test_rows_round_trip(self, tiny_pet):
        rows = tuple(
            tuple(tiny_pet.get(t, m) for m in tiny_pet.machine_names)
            for t in tiny_pet.task_types
        )
        rebuilt = PETMatrix(tiny_pet.task_types, tiny_pet.machine_names, rows)
        assert rebuilt.get("gamma", "fast-b") is tiny_pet.get("gamma", "fast-b")
        assert rebuilt.mean_execution_times() == pytest.approx(tiny_pet.mean_execution_times())


class TestAccess:
    def test_get_by_name_and_index(self, tiny_pet):
        by_name = tiny_pet.get("beta", "fast-b")
        by_index = tiny_pet.get(1, 1)
        assert by_name is by_index

    def test_unknown_names_raise(self, tiny_pet):
        with pytest.raises(KeyError):
            tiny_pet.get("nonexistent", "fast-a")
        with pytest.raises(KeyError):
            tiny_pet.get("alpha", "nonexistent")

    def test_out_of_range_indices_raise(self, tiny_pet):
        with pytest.raises(IndexError):
            tiny_pet.get(10, 0)
        with pytest.raises(IndexError):
            tiny_pet.get(0, 10)

    def test_dimensions(self, tiny_pet):
        assert tiny_pet.num_task_types == 3
        assert tiny_pet.num_machines == 2


class TestStatistics:
    def test_mean_matrix_matches_entries(self, tiny_pet):
        means = tiny_pet.mean_execution_times()
        assert means.shape == (3, 2)
        assert means[0, 0] == pytest.approx(tiny_pet.get(0, 0).mean())

    def test_mean_execution_time_scalar(self, tiny_pet):
        t, m = tiny_pet.task_type_index("alpha"), tiny_pet.machine_index("fast-a")
        assert tiny_pet.mean_execution_times()[t, m] == pytest.approx(
            tiny_pet.get("alpha", "fast-a").mean()
        )

    def test_task_type_mean_is_row_average(self, tiny_pet):
        expected = tiny_pet.mean_execution_times()[0].mean()
        assert tiny_pet.task_type_mean("alpha") == pytest.approx(expected)

    def test_overall_mean(self, tiny_pet):
        assert tiny_pet.overall_mean() == pytest.approx(
            tiny_pet.mean_execution_times().mean()
        )

    def test_inconsistent_heterogeneity_detected(self, tiny_pet):
        assert tiny_pet.is_inconsistently_heterogeneous()

    def test_consistent_matrix_detected(self):
        fast = DiscretePMF.from_impulses({2: 1.0})
        slow = DiscretePMF.from_impulses({4: 1.0})
        pet = PETMatrix(("a", "b"), ("m0", "m1"), ((fast, slow), (fast, slow)))
        assert not pet.is_inconsistently_heterogeneous()
