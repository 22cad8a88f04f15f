"""Surrogate-based hyperparameter search over a finite grid.

A Gaussian-process regressor (squared-exponential kernel over normalized
grid coordinates) maps hyperparameters to the observed validation score;
each round proposes the unexplored point with the highest expected
improvement. The grid is small enough that the acquisition is maximized
by exact enumeration. During adaptation the unit count is structural and
the space is frozen to the incumbent value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ExhaustedSpace
from .forecaster import Hyperparameters

DEFAULT_LEARNING_RATES = (0.0001, 0.001, 0.01)
# Superset grid: coarse published choices plus the intermediate rates that
# tuned configurations actually land on.
DEFAULT_DROPOUT_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_N_UNITS = tuple(range(32, 513, 32))

# Trials drawn by spread-out seeding before the surrogate takes over.
DEFAULT_N_INIT = 5

_KERNEL_LENGTH_SCALE = 0.6
_GP_NOISE = 1e-6


@dataclass(frozen=True)
class SearchSpace:
    learning_rates: tuple[float, ...] = DEFAULT_LEARNING_RATES
    dropout_rates: tuple[float, ...] = DEFAULT_DROPOUT_RATES
    n_units_values: tuple[int, ...] = DEFAULT_N_UNITS

    def __post_init__(self):
        if not (self.learning_rates and self.dropout_rates and self.n_units_values):
            raise ValueError("search space axes must be non-empty")

    def all_points(self) -> list[Hyperparameters]:
        return [Hyperparameters(learning_rate=lr, dropout_rate=dr, n_units=nu)
                for lr in self.learning_rates
                for dr in self.dropout_rates
                for nu in self.n_units_values]

    def contains(self, hp: Hyperparameters) -> bool:
        return (hp.learning_rate in self.learning_rates
                and hp.dropout_rate in self.dropout_rates
                and hp.n_units in self.n_units_values)

    def normalize(self, hp: Hyperparameters) -> np.ndarray:
        """Ordinal coordinates in [0, 1]^3; singleton axes collapse to 0."""

        def coord(value, axis):
            if len(axis) == 1:
                return 0.0
            return axis.index(value) / (len(axis) - 1)

        return np.array([coord(hp.learning_rate, self.learning_rates),
                         coord(hp.dropout_rate, self.dropout_rates),
                         coord(hp.n_units, self.n_units_values)])


@dataclass(frozen=True)
class TrialRecord:
    hyperparameters: Hyperparameters
    score: float
    duration: float = 0.0  # unread; perfbench/probes.py still passes it

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"trial score must be finite, got {self.score}")


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * sq / _KERNEL_LENGTH_SCALE**2)


def _expected_improvement(train_x: np.ndarray, train_y: np.ndarray,
                          candidates: np.ndarray) -> np.ndarray:
    """EI for minimization at each candidate, on standardized scores."""
    y_mean = train_y.mean()
    y_std = train_y.std()
    y = (train_y - y_mean) / (y_std if y_std > 0 else 1.0)

    k_train = _kernel(train_x, train_x) + _GP_NOISE * np.eye(len(train_x))
    k_cross = _kernel(candidates, train_x)
    solved = np.linalg.solve(k_train, np.column_stack([y, k_cross.T]))
    mean = k_cross @ solved[:, 0]
    variance = np.maximum(1.0 + _GP_NOISE - np.sum(k_cross * solved[:, 1:].T, axis=1), 0.0)
    sigma = np.sqrt(variance)

    best = y.min()
    improvement = best - mean
    safe_sigma = np.where(sigma > 0, sigma, 1.0)
    u = improvement / safe_sigma
    ei = improvement * _normal_cdf(u) + sigma * _normal_pdf(u)
    return np.where(sigma > 0, ei, np.maximum(improvement, 0.0))


def propose(history: Sequence[TrialRecord], space: SearchSpace, seed: int,
            n_init: int = DEFAULT_N_INIT) -> Hyperparameters:
    """Next hyperparameters to evaluate; never repeats a tried point.

    The first n_init proposals spread out over the grid (greedy max-min
    distance from everything tried, seeded start); afterwards the GP
    surrogate picks the unexplored point with the highest expected
    improvement over the incumbent.
    """
    points = space.all_points()
    tried = {t.hyperparameters for t in history}
    unexplored = [hp for hp in points if hp not in tried]
    if not unexplored:
        raise ExhaustedSpace(f"all {len(points)} points have been evaluated")

    order = np.random.default_rng([seed, 3]).permutation(len(points))
    rank = {points[idx]: pos for pos, idx in enumerate(order)}

    if not history:
        return min(unexplored, key=rank.__getitem__)

    if len(history) < n_init:
        tried_x = np.stack([space.normalize(t.hyperparameters) for t in history])

        def spread(hp: Hyperparameters) -> float:
            return float(np.min(np.linalg.norm(tried_x - space.normalize(hp), axis=1)))

        return min(unexplored, key=lambda hp: (-spread(hp), rank[hp]))

    train_x = np.stack([space.normalize(t.hyperparameters) for t in history])
    train_y = np.array([t.score for t in history])
    candidates = np.stack([space.normalize(hp) for hp in unexplored])
    ei = _expected_improvement(train_x, train_y, candidates)
    pos = min(range(len(unexplored)),
              key=lambda j: (-ei[j], rank[unexplored[j]]))
    return unexplored[pos]


def seeding_points(space: SearchSpace, budget: int, seed: int,
                   n_init: int = DEFAULT_N_INIT) -> list[Hyperparameters]:
    """The first min(budget, n_init, distinct grid points) proposals of a
    search: they read no score, so they are known before any trial runs."""
    history: list[TrialRecord] = []
    for _ in range(min(budget, n_init)):
        try:
            history.append(TrialRecord(propose(history, space, seed, n_init), 0.0))
        except ExhaustedSpace:  # an axis that repeats a value has fewer distinct points
            break
    return [t.hyperparameters for t in history]


def optimize(objective: Callable[[Hyperparameters], float], space: SearchSpace,
             budget: int, seed: int, n_init: int = DEFAULT_N_INIT,
             ) -> tuple[Hyperparameters, list[TrialRecord]]:
    """Propose/evaluate/update loop; returns the best trial and the history."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    history: list[TrialRecord] = []
    for _ in range(budget):
        try:
            candidate = propose(history, space, seed, n_init)
        except ExhaustedSpace:
            break
        history.append(TrialRecord(candidate, float(objective(candidate))))
    best = min(history, key=lambda t: t.score)
    return best.hyperparameters, history
