"""Entropy/KL/JSD behavior against analytic and quadrature oracles."""
import math

import numpy as np
import pytest

from driftcast.density import DensityEstimate, Grid, estimate_kde
from driftcast.divergence import jsd, kl_divergence, sqrt_jsd
from driftcast.errors import GridMismatch

from conftest import (
    UnnormalizedDensity,
    exact_gaussian,
    jsd_entropy,
    random_kde_pair,
    shannon_entropy,
)


def _uniform_on(grid: Grid, lo: float, hi: float) -> DensityEstimate:
    """Indicator density normalized so its trapezoid mass is exactly 1."""
    x = grid.points
    raw = ((x >= lo) & (x <= hi)).astype(float)
    raw /= np.trapezoid(raw, dx=grid.spacing)
    return DensityEstimate(grid=grid, density=raw, bandwidth=1.0, n_samples=0)


class TestEntropy:
    def test_uniform_width_two_is_one_bit(self):
        grid = Grid(lo=0.0, hi=2.0, n_points=513)
        uniform = DensityEstimate(grid=grid, density=np.full(513, 0.5),
                                  bandwidth=1.0, n_samples=0)
        assert shannon_entropy(uniform) == pytest.approx(1.0, abs=1e-3)

    def test_smoothing_increases_entropy(self):
        sample = [5.0]
        sharp_grid = Grid(lo=5 - 5 * 0.2, hi=5 + 5 * 0.2, n_points=512)
        wide_grid = Grid(lo=5 - 5 * 10.0, hi=5 + 5 * 10.0, n_points=512)
        sharp = shannon_entropy(estimate_kde(sample, 0.2, sharp_grid))
        wide = shannon_entropy(estimate_kde(sample, 10.0, wide_grid))
        assert sharp < wide

    def test_standard_normal_matches_closed_form(self):
        grid = Grid(lo=-6.0, hi=6.0, n_points=1024)
        entropy = shannon_entropy(exact_gaussian(grid, 0.0, 1.0))
        analytic = 0.5 * math.log2(2.0 * math.pi * math.e)  # 2.047 bits
        assert entropy == pytest.approx(analytic, abs=5e-3)

    def test_unnormalized_density_rejected(self):
        grid = Grid(lo=0.0, hi=1.0, n_points=64)
        bogus = DensityEstimate(grid=grid, density=np.full(64, 3.0),
                                bandwidth=1.0, n_samples=0)
        with pytest.raises(UnnormalizedDensity):
            shannon_entropy(bogus)


class TestKl:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(0)
        p, _ = random_kde_pair(rng)
        assert kl_divergence(p, p) == 0.0

    def test_shifted_gaussians_match_closed_form(self):
        # KL(N(0,1) || N(1,1)) = (mu0-mu1)^2 / 2 = 0.5 nats
        grid = Grid(lo=-8.0, hi=9.0, n_points=2048)
        p = exact_gaussian(grid, 0.0, 1.0)
        q = exact_gaussian(grid, 1.0, 1.0)
        assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-3)

    def test_asymmetry_on_gaussian_vs_bimodal(self):
        grid = Grid(lo=-8.0, hi=8.0, n_points=2048)
        x = grid.points
        gauss = exact_gaussian(grid, 0.0, 1.0)
        halves = (np.exp(-0.5 * ((x + 2) / 0.5) ** 2)
                  + np.exp(-0.5 * ((x - 2) / 0.5) ** 2)) / (2 * 0.5 * math.sqrt(2 * math.pi))
        bimodal = DensityEstimate(grid=grid, density=halves, bandwidth=0.5, n_samples=0)

        forward = kl_divergence(gauss, bimodal)
        backward = kl_divergence(bimodal, gauss)

        # Independent quadrature oracle for both directions.
        def oracle(pd, qd):
            mask = pd > 0
            integrand = np.zeros_like(pd)
            integrand[mask] = pd[mask] * np.log(pd[mask] / np.maximum(qd[mask], 1e-300))
            return float((integrand[0] / 2 + integrand[1:-1].sum() + integrand[-1] / 2)
                         * grid.spacing)

        assert forward == pytest.approx(oracle(gauss.density, bimodal.density), abs=1e-9)
        assert backward == pytest.approx(oracle(bimodal.density, gauss.density), abs=1e-9)
        assert abs(forward - backward) > 0.1

    def test_nonnegative_up_to_quadrature_slack(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = random_kde_pair(rng)
            assert kl_divergence(p, q) >= -1e-12

    def test_grid_mismatch_rejected(self):
        p = estimate_kde([0.0], 1.0, Grid(-5.0, 5.0, 512))
        q = estimate_kde([0.0], 1.0, Grid(-5.0, 5.0, 256))
        with pytest.raises(GridMismatch):
            kl_divergence(p, q)


class TestJsd:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(1)
        p, _ = random_kde_pair(rng)
        assert jsd(p, p).value == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q = random_kde_pair(rng)
            assert jsd(p, q).value == jsd(q, p).value

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = random_kde_pair(rng)
            value = jsd(p, q).value
            assert 0.0 <= value <= 1.0

    def test_disjoint_uniforms_reach_one_bit(self):
        grid = Grid(lo=-1.0, hi=102.0, n_points=2048)
        p = _uniform_on(grid, 0.0, 1.0)
        q = _uniform_on(grid, 100.0, 101.0)
        assert jsd(p, q).value == pytest.approx(1.0, abs=1e-6)

    def test_mixture_and_entropy_forms_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = random_kde_pair(rng)
            assert jsd(p, q).value == pytest.approx(jsd_entropy(p, q), abs=1e-6)

    def test_zero_iff_pointwise_equal(self):
        rng = np.random.default_rng(5)
        p, q = random_kde_pair(rng)
        if np.max(np.abs(p.density - q.density)) > 1e-9:
            assert jsd(p, q).value > 0.0
        nudged = DensityEstimate(grid=p.grid, density=p.density * 1.001,
                                 bandwidth=p.bandwidth, n_samples=p.n_samples)
        assert jsd(p, nudged).value > 0.0


class TestSqrtJsd:
    def test_square_root_relation_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p, q = random_kde_pair(rng)
            assert sqrt_jsd(p, q).value == math.sqrt(jsd(p, q).value)

    def test_disjoint_pair_reaches_one(self):
        grid = Grid(lo=-1.0, hi=102.0, n_points=2048)
        p = _uniform_on(grid, 0.0, 1.0)
        q = _uniform_on(grid, 100.0, 101.0)
        assert sqrt_jsd(p, q).value == pytest.approx(1.0, abs=1e-6)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(9)
        grid = Grid(lo=-12.0, hi=12.0, n_points=512)
        for _ in range(40):
            estimates = [
                estimate_kde(rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2), 30),
                             rng.uniform(0.4, 1.5), grid)
                for _ in range(3)
            ]
            p, q, r = estimates
            d_pr = sqrt_jsd(p, r).value
            d_pq = sqrt_jsd(p, q).value
            d_qr = sqrt_jsd(q, r).value
            assert d_pr <= d_pq + d_qr + 1e-9
