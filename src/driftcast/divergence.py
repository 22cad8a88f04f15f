"""KL and Jensen-Shannon divergences between gridded densities.

The Jensen-Shannon divergence is computed in log base 2 so its value is
bounded in [0, 1]; its square root satisfies the triangle inequality and
is the distance the drift detector consumes. The JSD is computed in its
mixture form; the tests cross-check it against the entropy form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityEstimate
from .errors import GridMismatch

# Densities are floored here before entering a log denominator.
_Q_FLOOR = 1e-300


@dataclass(frozen=True)
class DivergenceValue:
    value: float


def _require_same_grid(p: DensityEstimate, q: DensityEstimate) -> None:
    if p.grid != q.grid:
        raise GridMismatch(
            f"densities on different grids: {p.grid!r} vs {q.grid!r}"
        )


def kl_divergence(p: DensityEstimate, q: DensityEstimate,
                  base: float = math.e) -> float:
    """Kullback-Leibler divergence integral p log(p/q); nats by default.

    The integrand is taken as 0 wherever p vanishes, and q is floored at
    1e-300 so an (exactly) zero q cannot blow up the log.
    """
    _require_same_grid(p, q)
    pd, qd = p.density, q.density
    integrand = np.zeros_like(pd)
    pos = pd > 0
    integrand[pos] = pd[pos] * np.log(pd[pos] / np.maximum(qd[pos], _Q_FLOOR))
    return float(np.trapezoid(integrand, dx=p.grid.spacing)) / math.log(base)


def jsd(p: DensityEstimate, q: DensityEstimate) -> DivergenceValue:
    """Jensen-Shannon divergence in bits (mixture form), clamped to [0, 1].

    0.5 * KL(p || m) + 0.5 * KL(q || m) with m = (p + q) / 2. The mixture
    is strictly positive wherever either argument is, so no epsilon enters
    the log. Swapping p and q sums the same two terms, so symmetry is
    exact in floating point.
    """
    _require_same_grid(p, q)
    m = 0.5 * (p.density + q.density)
    value = 0.5 * (_kl_bits_vs(p, m) + _kl_bits_vs(q, m))
    return DivergenceValue(value=min(max(value, 0.0), 1.0))


def _kl_bits_vs(p: DensityEstimate, m: np.ndarray) -> float:
    pd = p.density
    integrand = np.zeros_like(pd)
    pos = pd > 0
    integrand[pos] = pd[pos] * np.log2(pd[pos] / m[pos])
    return float(np.trapezoid(integrand, dx=p.grid.spacing))


def sqrt_jsd(p: DensityEstimate, q: DensityEstimate) -> DivergenceValue:
    """Square root of the JSD; a metric, used as the drift distance."""
    return DivergenceValue(value=math.sqrt(jsd(p, q).value))
