"""Tests for deadline assignment (Section VI-B)."""

from __future__ import annotations

import pytest

from repro.workload.deadlines import DeadlineModel


class TestDeadlineFor:
    def test_formula(self, tiny_pet):
        arrival = 100
        task_type = 0
        beta = 2.0
        expected = round(
            arrival + tiny_pet.task_type_mean(task_type) + beta * tiny_pet.overall_mean()
        )
        assert DeadlineModel(tiny_pet, beta=beta)(arrival, task_type) == expected

    def test_deadline_always_after_arrival(self, tiny_pet):
        for arrival in (0, 5, 1000):
            for task_type in range(tiny_pet.num_task_types):
                assert DeadlineModel(tiny_pet, beta=0.5)(arrival, task_type) > arrival

    def test_zero_beta_gives_type_mean_slack(self, tiny_pet):
        deadline = DeadlineModel(tiny_pet, beta=0.0)(0, 1)
        assert deadline == round(tiny_pet.task_type_mean(1))

    def test_negative_beta_rejected(self, tiny_pet):
        with pytest.raises(ValueError):
            DeadlineModel(tiny_pet, beta=-1.0)(0, 0)

    def test_longer_task_types_get_later_deadlines(self, tiny_pet):
        # "gamma" has the largest mean execution time in the tiny PET.
        short = DeadlineModel(tiny_pet, beta=1.0)(0, tiny_pet.task_type_index("alpha"))
        long = DeadlineModel(tiny_pet, beta=1.0)(0, tiny_pet.task_type_index("gamma"))
        assert long > short


class TestDeadlineModel:
    def test_matches_formula_for_every_type(self, tiny_pet):
        model = DeadlineModel(tiny_pet, beta=1.5)
        for arrival in (0, 50, 500):
            for task_type in range(tiny_pet.num_task_types):
                assert model(arrival, task_type) == round(
                    arrival + tiny_pet.task_type_mean(task_type) + 1.5 * tiny_pet.overall_mean()
                )

    def test_beta_property(self, tiny_pet):
        assert DeadlineModel(tiny_pet, beta=2.5).beta == 2.5

    def test_invalid_type_index(self, tiny_pet):
        model = DeadlineModel(tiny_pet)
        with pytest.raises(IndexError):
            model(0, 99)

    def test_negative_beta_rejected(self, tiny_pet):
        with pytest.raises(ValueError):
            DeadlineModel(tiny_pet, beta=-0.1)
