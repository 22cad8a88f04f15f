"""Shared fixtures and scenario builders for the test suite."""
import math

import numpy as np
import pytest

from driftcast.density import DensityEstimate, Grid, estimate_kde, shared_grid
from driftcast.divergence import _require_same_grid, shannon_entropy
from driftcast.ingest import DailyProfile, DriftEvent, SplitSpec, generate_synthetic
from driftcast.pipeline import RunConfig, run_active, run_baseline, run_passive


def exact_gaussian(grid: Grid, mu: float, sigma: float) -> DensityEstimate:
    """Analytic normal density sampled on a grid (not a KDE)."""
    x = grid.points
    density = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return DensityEstimate(grid=grid, density=density, bandwidth=sigma, n_samples=0)


def random_kde_pair(rng: np.random.Generator, n_points: int = 512):
    """Two KDEs of nearby random samples on one shared grid."""
    a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=40)
    b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=40)
    bw = rng.uniform(0.3, 1.5)
    grid = shared_grid(a, b, bw, n_points)
    return estimate_kde(a, bw, grid), estimate_kde(b, bw, grid)


def jsd_entropy(p: DensityEstimate, q: DensityEstimate) -> float:
    """Entropy form H(m) - (H(p) + H(q)) / 2 in bits: the cross-check oracle
    for the mixture form that `jsd` computes."""
    _require_same_grid(p, q)
    m = DensityEstimate(grid=p.grid, density=0.5 * (p.density + q.density),
                        bandwidth=p.bandwidth, n_samples=p.n_samples + q.n_samples)
    return shannon_entropy(m) - 0.5 * (shannon_entropy(p) + shannon_entropy(q))


# --- synthetic drift scenario shared by pipeline and acceptance tests ---------
#
# 26 days at 10-minute resolution: 19 pre-test (16 train + 3 validation) and
# 7 test days. A large +12 kWh level jump lands on the second test day; its
# divergence saturates near 1, so the +1 kWh/day creep that follows never
# sets a new record and the detector goes quiet again after a few days.
# Always-adapting tracking therefore beats detect-then-adapt, which in turn
# beats never adapting.

SCENARIO_DAYS = 26
SCENARIO_JUMP_DAY = 21
SCENARIO_PROFILE = DailyProfile(base=10.0, peaks=((8.0, 2.0, 3.0), (19.0, 3.0, 5.0)))
SCENARIO_NOISE_SD = 0.35


def scenario_series(seed: int):
    events = [DriftEvent(day=SCENARIO_JUMP_DAY, kind="mean_shift", magnitude=12.0)]
    events += [DriftEvent(day=d, kind="mean_shift", magnitude=1.0)
               for d in range(SCENARIO_JUMP_DAY + 1, SCENARIO_DAYS + 1)]
    return generate_synthetic(SCENARIO_PROFILE, events, noise_sd=SCENARIO_NOISE_SD,
                              seed=seed, n_days=SCENARIO_DAYS)


def scenario_config(seed: int, mode: str = "baseline", tau=None) -> RunConfig:
    return RunConfig(
        mode=mode,
        tau=tau,
        load_bandwidth=1.0,
        split=SplitSpec(),
        hpo_initial_budget=2,
        hpo_adapt_budget=2,
        hpo_fit_epochs=1,
        epochs_initial=6,
        epochs_incremental=3,
        patience=3,
        seed=seed,
        deterministic_timing=True,
        learning_rates=(0.001, 0.01),
        dropout_rates=(0.0,),
        n_units_values=(8,),
    )


SWEEP_SEEDS = tuple(range(20))


@pytest.fixture(scope="session")
def scenario_sweep():
    """Baseline / passive / active(0.07) / active(0.15) runs over 20 seeds.

    Session-scoped because several pipeline and acceptance checks read the
    same sweep; one run keeps the whole suite inside its time budget.
    """
    results = {}
    for seed in SWEEP_SEEDS:
        series = scenario_series(seed)
        results[seed] = {
            "baseline": run_baseline(scenario_config(seed), series),
            "passive": run_passive(scenario_config(seed, "passive"), series),
            "active_007": run_active(scenario_config(seed, "active", 0.07), series),
            "active_010": run_active(scenario_config(seed, "active", 0.10), series),
            "active_015": run_active(scenario_config(seed, "active", 0.15), series),
        }
    return results
