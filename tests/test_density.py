"""KDE unit behavior: kernel values, mass, grids, bandwidth rule, kernel sums."""
import math
import warnings

import numpy as np
import pytest

from driftcast.density import (
    Grid,
    estimate_kde,
    kernel_sum,
    shared_grid,
    silverman_bandwidth,
)
from driftcast.errors import EmptyInput, NonPositiveBandwidth


def manual_trapezoid(values: np.ndarray, spacing: float) -> float:
    """Independent quadrature oracle (no numpy.trapezoid)."""
    return float((values[0] / 2 + values[1:-1].sum() + values[-1] / 2) * spacing)


def test_single_sample_center_value():
    grid = Grid(lo=-5.0, hi=5.0, n_points=1001)  # odd count puts a point at 0
    estimate = estimate_kde([0.0], bandwidth=1.0, grid=grid)
    center = estimate.density[500]
    assert abs(center - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-5


def test_symmetric_samples_give_symmetric_density():
    grid = Grid(lo=-4.0, hi=4.0, n_points=801)
    estimate = estimate_kde([-1.0, 1.0], bandwidth=1.0, grid=grid)
    assert np.all(np.abs(estimate.density - estimate.density[::-1]) < 1e-12)


def test_mass_close_to_one_on_padded_grid():
    rng = np.random.default_rng(42)
    values = rng.standard_normal(200)
    grid = Grid(lo=-6.0, hi=6.0, n_points=512)
    estimate = estimate_kde(values, bandwidth=0.5, grid=grid)
    oracle_mass = manual_trapezoid(estimate.density, grid.spacing)
    assert abs(oracle_mass - 1.0) < 1e-3
    assert abs(estimate.mass() - oracle_mass) < 1e-12


def test_mass_close_to_one_for_many_shapes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        values = rng.normal(rng.uniform(-20, 20), rng.uniform(0.5, 5.0), size=80)
        bw = rng.uniform(0.2, 3.0)
        grid = shared_grid(values, values, bw)
        estimate = estimate_kde(values, bw, grid)
        assert abs(estimate.mass() - 1.0) < 1e-3


def test_shift_equivariance():
    rng = np.random.default_rng(11)
    values = rng.normal(2.0, 1.0, size=50)
    shift = 3.5
    grid = Grid(lo=-2.0, hi=6.0, n_points=512)
    shifted_grid = Grid(lo=grid.lo + shift, hi=grid.hi + shift, n_points=512)
    base = estimate_kde(values, 1.0, grid)
    moved = estimate_kde(values + shift, 1.0, shifted_grid)
    assert np.all(np.abs(base.density - moved.density) < 1e-12)


def test_density_strictly_positive_everywhere():
    grid = Grid(lo=-100.0, hi=100.0, n_points=512)
    estimate = estimate_kde([0.0], bandwidth=10.0, grid=grid)
    assert np.all(estimate.density > 0)


def test_monotone_mass_under_grid_enlargement():
    values = np.array([0.0, 1.0, 2.0])
    small = estimate_kde(values, 1.0, Grid(-3.0, 5.0, 256))
    large = estimate_kde(values, 1.0, Grid(-8.0, 10.0, 1024))
    assert large.mass() >= small.mass() - 1e-12


def test_empty_values_rejected():
    with pytest.raises(EmptyInput):
        estimate_kde([], bandwidth=1.0, grid=Grid(0.0, 1.0))


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(NonPositiveBandwidth):
        estimate_kde([1.0], bandwidth=0.0, grid=Grid(0.0, 1.0))
    with pytest.raises(NonPositiveBandwidth):
        estimate_kde([1.0], bandwidth=-2.0, grid=Grid(0.0, 1.0))


class TestSharedGrid:
    def test_padding_formula(self):
        grid = shared_grid(np.arange(11.0), np.arange(11.0), bandwidth=10.0)
        assert grid.lo == -50.0
        assert grid.hi == 60.0

    def test_single_point_samples(self):
        grid = shared_grid([5.0], [5.0], bandwidth=1.0)
        assert grid.lo == 0.0
        assert grid.hi == 10.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            shared_grid([], [1.0], bandwidth=1.0)

    def test_covers_both_samples(self):
        grid = shared_grid([-3.0, 0.0], [10.0, 12.0], bandwidth=2.0)
        assert grid.lo == -13.0
        assert grid.hi == 22.0


class TestGridValidation:
    def test_lo_must_be_below_hi(self):
        with pytest.raises(ValueError):
            Grid(lo=1.0, hi=1.0)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            Grid(lo=0.0, hi=1.0, n_points=8)

    def test_points_are_equally_spaced(self):
        grid = Grid(lo=0.0, hi=1.0, n_points=101)
        diffs = np.diff(grid.points)
        assert np.allclose(diffs, grid.spacing, rtol=0, atol=1e-15)


class TestSilverman:
    def test_scales_linearly_with_data(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.5, 0.1, size=60)
        assert silverman_bandwidth(values * 3) == pytest.approx(
            3 * silverman_bandwidth(values), rel=1e-9)

    def test_degenerate_sample_hits_floor(self):
        assert silverman_bandwidth([0.2, 0.2, 0.2]) == 1e-3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            silverman_bandwidth([])


def kernel_sum_per_block(values, bandwidth, points, start=None):
    """Reference kernel sum: fresh temporaries for every 256-row block."""
    acc = np.zeros(points.size) if start is None else start
    for first in range(0, values.size, 256):
        block = values[first : first + 256]
        z = (points[None, :] - block[:, None]) / bandwidth
        rows = np.exp(-0.5 * z * z)
        rows[0] += acc
        acc = rows.sum(axis=0)
    return acc


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 1000, 4096])
@pytest.mark.parametrize("bandwidth", [1.0, 0.3, 1e-3])
def test_in_place_kernel_sum_equals_the_per_block_formula_bitwise(n, bandwidth):
    rng = np.random.default_rng(n)
    values = rng.normal(10.0, 3.0, n)
    points = np.linspace(values.min() - 5.0, values.max() + 5.0, 512)
    start = rng.uniform(0.0, 50.0, 512)
    kept = start.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fresh = kernel_sum(values, bandwidth, points)
        resumed = kernel_sum(values, bandwidth, points, start)
    assert fresh.tobytes() == kernel_sum_per_block(values, bandwidth, points).tobytes()
    assert resumed.tobytes() == kernel_sum_per_block(values, bandwidth, points, kept).tobytes()
    assert start.tobytes() == kept.tobytes()  # a caller's running sum is never written
