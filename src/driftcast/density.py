"""Gaussian-kernel density estimation on a shared evaluation grid.

Densities that will be compared by a divergence must be evaluated on the
same grid; shared_grid() builds one wide enough that the truncated kernel
tail mass (beyond 5 bandwidths) stays below the 1e-3 mass tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyInput, NonPositiveBandwidth

# Default evaluation-grid resolution; smooth integrands need no more.
DEFAULT_GRID_POINTS = 512

# Kernel tail padding in bandwidths: Gaussian mass beyond 5h is < 3e-7.
GRID_PAD_BANDWIDTHS = 5.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Kernel rows evaluated at once; bounds each temporary to about 1 MB at 512
# grid points.
_KERNEL_BLOCK = 256

# The least bandwidth silverman_bandwidth returns, for degenerate samples.
_MIN_BANDWIDTH = 1e-3


@dataclass(frozen=True)
class Grid:
    """Equally spaced evaluation grid on [lo, hi]."""

    lo: float
    hi: float
    n_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"grid requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.n_points < 16:
            raise ValueError(f"grid needs at least 16 points, got {self.n_points}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)


@dataclass(frozen=True)
class DensityEstimate:
    """A KDE evaluated on a grid, with the bandwidth that produced it."""

    grid: Grid
    density: np.ndarray
    bandwidth: float
    n_samples: int

    def mass(self) -> float:
        """Trapezoid-rule integral of the density over the grid."""
        return float(np.trapezoid(self.density, dx=self.grid.spacing))


def kernel_sum(values: np.ndarray, bandwidth: float, points: np.ndarray,
               start: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of the kernel rows exp(-z^2 / 2), z = (points - y_i) / h.

    The rows are added one after another onto `start` (zeros when None), as
    numpy's axis-0 sum adds them, so the bits do not depend on how the
    values are split across calls or blocks.
    """
    acc = np.zeros(points.size) if start is None else start
    z_buf, rows_buf = np.empty((2, min(values.size, _KERNEL_BLOCK), points.size))
    for first in range(0, values.size, _KERNEL_BLOCK):
        block = values[first : first + _KERNEL_BLOCK]
        z, rows = z_buf[: block.size], rows_buf[: block.size]
        np.divide(np.subtract(points, block[:, None], out=z), bandwidth, out=z)
        np.exp(np.multiply(np.multiply(z, -0.5, out=rows), z, out=rows), out=rows)
        rows[0] += acc  # never into `start`: a caller's running sum
        acc = rows.sum(axis=0)
    return acc


def density_from_sum(kernels: np.ndarray, n_samples: int, bandwidth: float,
                     grid: Grid) -> DensityEstimate:
    """Normalise a kernel sum over `n_samples` values into a density."""
    density = kernels / (n_samples * bandwidth * _SQRT_2PI)
    return DensityEstimate(grid=grid, density=density, bandwidth=bandwidth,
                           n_samples=n_samples)


def estimate_kde(values, bandwidth: float, grid: Grid) -> DensityEstimate:
    """Gaussian KDE of `values` evaluated at every grid point.

    density[j] = (1 / (n h)) * sum_i phi((g_j - y_i) / h) with phi the
    standard normal kernel.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInput("cannot estimate a density from no samples")
    if not bandwidth > 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    return density_from_sum(kernel_sum(v, bandwidth, grid.points), int(v.size), bandwidth, grid)


def shared_grid(values_a, values_b, bandwidth: float) -> Grid:
    """Grid covering both samples, padded by 5 bandwidths on each side."""
    a = np.asarray(values_a, dtype=float).ravel()
    b = np.asarray(values_b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptyInput("shared_grid needs two non-empty samples")
    if not bandwidth > 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    lo = float(min(a.min(), b.min()) - GRID_PAD_BANDWIDTHS * bandwidth)
    hi = float(max(a.max(), b.max()) + GRID_PAD_BANDWIDTHS * bandwidth)
    return Grid(lo=lo, hi=hi)


def silverman_bandwidth(values) -> float:
    """Silverman's rule-of-thumb bandwidth, floored for degenerate samples.

    Used for the divergence-history distribution, which lives on [0, 1]
    where the fixed load bandwidth would be nonsensical.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInput("cannot pick a bandwidth for no samples")
    std = float(np.std(v))
    q75, q25 = np.percentile(v, [75, 25])
    iqr = float(q75 - q25)
    spread_candidates = [s for s in (std, iqr / 1.34) if s > 0]
    if not spread_candidates:
        return _MIN_BANDWIDTH
    bw = 0.9 * min(spread_candidates) * v.size ** (-0.2)
    return max(bw, _MIN_BANDWIDTH)
