"""Dynamic change-point detector over daily divergence values.

Each day's sqrt-JSD distance between that day's KDE and the KDE of all
preceding readings is tested against the distribution of past divergence
values: the p-value is the upper-tail mass of a KDE fitted to the history,
and a drift fires when it drops below the significance level tau. No fixed
divergence threshold is ever set; the history distribution evolves as every
day (drift or not) appends its divergence.

One DriftState holds the pool with its in-order kernel sum on the pool's
own padded grid, the history and the load bandwidth. A day inside the pool's
range costs O(readings per day x grid) however long the history, and every
divergence is bit-for-bit the one estimate_kde over the whole pool gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .density import (
    GRID_PAD_BANDWIDTHS,
    Grid,
    density_from_sum,
    estimate_kde,
    kernel_sum,
    shared_grid,
    silverman_bandwidth,
)
from .divergence import sqrt_jsd
from .errors import EmptyHistory, InsufficientHistory, OutOfRangeDivergence
from .ingest import DaySample

# Divergences live on [0, 1]; the history KDE is integrated on this domain
# padded by 5 history bandwidths.
_HISTORY_DOMAIN = (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DriftState:
    """The reference pool, held once with its kernel sum, and the divergence history."""

    pool: np.ndarray  # the exact array `pool_sum` describes
    grid: Grid
    pool_sum: np.ndarray  # the pool's kernel rows on `grid`, added in pool order
    divergence_history: np.ndarray
    load_bandwidth: float
    _regridded: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def reference_readings(self) -> np.ndarray:
        return self.pool

    def grid_with(self, readings: np.ndarray) -> Grid:
        """shared_grid(readings, pool), the grid of the pool and `readings` too, without
        reading the pool: rounding x - pad is monotone, so its ends are the grid's."""
        pad = GRID_PAD_BANDWIDTHS * self.load_bandwidth
        return Grid(min(self.grid.lo, float(readings.min() - pad)),
                    max(self.grid.hi, float(readings.max() + pad)))

    def sum_on(self, grid: Grid) -> np.ndarray:
        """The pool's kernel sum on `grid`, summed at most once per grid.

        A day that sets a new pool extreme asks for the pool on the grid
        that the pool extended by that day will have: first for the
        divergence, then to extend into the new pool's sum.
        """
        if grid == self.grid:
            return self.pool_sum
        if grid not in self._regridded:
            self._regridded[grid] = kernel_sum(self.pool, self.load_bandwidth, grid.points)
        return self._regridded[grid]


@dataclass(frozen=True)
class DriftDecision:
    day_index: date
    divergence: float
    p_value: float
    is_drift: bool
    tau: float


def init_drift_state(train_days: Sequence[DaySample], load_bandwidth: float) -> DriftState:
    """Seed the detector from d training days.

    Runs the live detector over the training days: day k is compared with
    the pooled readings of days 1..k-1 and then advanced into the pool,
    which yields d-1 divergence values.
    """
    if len(train_days) < 2:
        raise InsufficientHistory(f"need at least 2 training days, got {len(train_days)}")

    first = train_days[0].readings
    grid = shared_grid(first, first, load_bandwidth)
    state = DriftState(pool=first, grid=grid,
                       pool_sum=kernel_sum(first, load_bandwidth, grid.points),
                       divergence_history=np.empty(0), load_bandwidth=load_bandwidth)
    for day in train_days[1:]:
        state = advance(state, day, compute_divergence(state, day))
    return state


def compute_divergence(state: DriftState, new_day: DaySample) -> float:
    """sqrt-JSD between the new day and the full reference pool.

    The pool's KDE comes from the pool's sum, moved onto the shared grid
    when the day sets a new extreme; it has estimate_kde's bits.
    """
    grid = state.grid_with(new_day.readings)
    pool_kde = density_from_sum(state.sum_on(grid), int(state.pool.size),
                                state.load_bandwidth, grid)
    div = sqrt_jsd(estimate_kde(new_day.readings, state.load_bandwidth, grid), pool_kde)
    return div.value


def tail_mass(history, probe: float, bandwidth: float,
              domain: tuple[float, float] = _HISTORY_DOMAIN) -> float:
    """Upper-tail mass of the history KDE at `probe`, clamped to [0, 1].

    Trapezoid rule on the padded domain grid from the probe, clamped into the
    grid, with the cut cell handled by linear interpolation of the density.
    """
    values = np.asarray(history, dtype=float).ravel()
    if values.size == 0:
        raise EmptyHistory("no divergence history recorded yet")
    lo = domain[0] - 5.0 * bandwidth
    hi = domain[1] + 5.0 * bandwidth
    grid = Grid(lo=lo, hi=hi)
    dens = estimate_kde(values, bandwidth, grid).density
    pts = grid.points

    probe = min(max(probe, lo), hi)
    k = int(np.searchsorted(pts, probe, side="left"))
    mass = float(np.trapezoid(dens[k:], pts[k:]))
    d_probe = float(np.interp(probe, pts, dens))
    mass += 0.5 * (d_probe + dens[k]) * float(pts[k] - probe)
    return float(min(max(mass, 0.0), 1.0))


# The true upper-tail probability is strictly below 1 for any finite probe
# (every Gaussian kernel keeps some mass underneath it), but at double
# precision it can round to exactly 1.0, which would defeat the tau=1
# always-adapt equivalence. Cap at the largest double below 1 instead.
_P_CAP = math.nextafter(1.0, 0.0)


def p_value(state: DriftState, divergence: float) -> float:
    """Right-tail p-value: how extreme the divergence is against history."""
    history = state.divergence_history
    if history.size == 0:
        raise EmptyHistory("no divergence history recorded yet")
    p = tail_mass(history, divergence, silverman_bandwidth(history))
    return min(p, _P_CAP)


def decide(state: DriftState, new_day: DaySample, tau: float) -> DriftDecision:
    """Full test for one day: divergence, p-value, drift flag."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    div = compute_divergence(state, new_day)
    p = p_value(state, div)
    return DriftDecision(day_index=new_day.day, divergence=float(div),
                         p_value=float(p), is_drift=bool(p < tau), tau=float(tau))


def advance(state: DriftState, new_day: DaySample, divergence: float) -> DriftState:
    """Append the day to the reference pool and its divergence to history.

    Runs on every day, drift or not: the history distribution must keep
    evolving or the test never adapts to the stream's own variability.
    The pool's kernel sum is extended by the day's readings; when the day
    moves the pool's minimum or maximum it is first moved onto the new grid,
    which compute_divergence has usually done already.
    """
    if not 0.0 <= divergence <= 1.0:
        raise OutOfRangeDivergence(f"divergence {divergence} outside [0, 1]")
    h = state.load_bandwidth
    grid = state.grid_with(new_day.readings)
    return DriftState(pool=np.concatenate([state.pool, new_day.readings]), grid=grid,
                      pool_sum=kernel_sum(new_day.readings, h, grid.points, state.sum_on(grid)),
                      divergence_history=np.append(state.divergence_history, divergence),
                      load_bandwidth=h)
