"""Surrogate search: proposals, exhaustion, optimization quality."""
import math

import pytest

from driftcast.errors import ExhaustedSpace
from driftcast.hpo import SearchSpace, TrialRecord, optimize, propose, seeding_points


def quadratic(hp):
    """Separable test objective with a unique grid minimum at
    (lr=0.001, dr=0.3, n_units=256)."""
    return ((math.log10(hp.learning_rate) + 3.0) ** 2
            + 4.0 * (hp.dropout_rate - 0.3) ** 2
            + ((hp.n_units - 256) / 480.0) ** 2)


SPACE = SearchSpace()
GRID_OPTIMUM = min(SPACE.all_points(), key=quadratic)


class TestSpace:
    def test_grid_size(self):
        assert len(SPACE.all_points()) == 3 * 6 * 16

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(learning_rates=())


class TestPropose:
    def test_first_proposal_is_inside_the_space(self):
        hp = propose([], SPACE, seed=0)
        assert SPACE.contains(hp)

    def test_single_unexplored_point_is_returned(self):
        space = SearchSpace(learning_rates=(0.001,), dropout_rates=(0.0, 0.5),
                            n_units_values=(32, 64))
        points = space.all_points()
        history = [TrialRecord(hp, score=1.0, duration=0.0) for hp in points[:-1]]
        assert propose(history, space, seed=4) == points[-1]

    def test_exhausted_space_raises(self):
        space = SearchSpace(learning_rates=(0.001,), dropout_rates=(0.0,),
                            n_units_values=(32,))
        history = [TrialRecord(space.all_points()[0], score=1.0, duration=0.0)]
        with pytest.raises(ExhaustedSpace):
            propose(history, space, seed=0)

    def test_never_repeats_within_a_run(self):
        for seed in range(5):
            _, history = optimize(quadratic, SPACE, budget=25, seed=seed)
            keys = [(t.hyperparameters.learning_rate, t.hyperparameters.dropout_rate,
                     t.hyperparameters.n_units) for t in history]
            assert len(set(keys)) == len(keys)
            assert all(SPACE.contains(t.hyperparameters) for t in history)


class TestOptimize:
    def test_budget_one_returns_the_single_point(self):
        best, history = optimize(quadratic, SPACE, budget=1, seed=3)
        assert len(history) == 1
        assert best == history[0].hyperparameters

    def test_finds_grid_minimum(self):
        hits = sum(optimize(quadratic, SPACE, budget=20, seed=seed)[0] == GRID_OPTIMUM
                   for seed in range(5))
        assert hits >= 4

    def test_incumbent_is_monotone_in_budget(self):
        for seed in (0, 1):
            bests = []
            for budget in (5, 10, 15, 20):
                _, history = optimize(quadratic, SPACE, budget=budget, seed=seed)
                bests.append(min(t.score for t in history))
            assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_frozen_space_preserves_incumbent_units(self):
        space = SearchSpace(n_units_values=(96,))
        _, history = optimize(quadratic, space, budget=10, seed=2)
        assert all(t.hyperparameters.n_units == 96 for t in history)

    def test_small_space_stops_at_exhaustion(self):
        space = SearchSpace(learning_rates=(0.001, 0.01), dropout_rates=(0.0,),
                            n_units_values=(32,))
        _, history = optimize(quadratic, space, budget=10, seed=1)
        assert len(history) == 2

    def test_a_repeated_axis_value_stops_at_the_distinct_points(self):
        space = SearchSpace(learning_rates=(0.01, 0.01), dropout_rates=(0.0,),
                            n_units_values=(32,))
        assert len(space.all_points()) == 2
        assert len(seeding_points(space, budget=5, seed=1)) == 1
        _, history = optimize(quadratic, space, budget=5, seed=1)
        assert len(history) == 1

    def test_deterministic_given_seed(self):
        first = optimize(quadratic, SPACE, budget=12, seed=9)
        second = optimize(quadratic, SPACE, budget=12, seed=9)
        assert first[0] == second[0]
        assert [t.hyperparameters for t in first[1]] == [t.hyperparameters
                                                         for t in second[1]]

    def test_nonfinite_score_rejected(self):
        with pytest.raises(ValueError):
            optimize(lambda hp: float("nan"), SPACE, budget=1, seed=0)
