"""Shared fixtures, scenario builders and reference implementations for the
test suite."""
import csv
import math
from collections import Counter
from datetime import datetime

import numpy as np
import pytest

from driftcast.density import DensityEstimate, Grid, estimate_kde, shared_grid
from driftcast.divergence import _require_same_grid
from driftcast.errors import (
    DriftcastError,
    EmptySeries,
    NegativeReading,
    NonMonotoneTimestamps,
    UnparseableRow,
)
from driftcast.ingest import (
    CSV_TIMESTAMP_COLUMN,
    CSV_VALUE_COLUMN,
    DEFAULT_RESOLUTION,
    DailyProfile,
    DriftEvent,
    LoadSeries,
    SplitSpec,
    generate_synthetic,
)
from driftcast.pipeline import RunConfig, run_active, run_baseline, run_passive


def exact_gaussian(grid: Grid, mu: float, sigma: float) -> DensityEstimate:
    """Analytic normal density sampled on a grid (not a KDE)."""
    x = grid.points
    density = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return DensityEstimate(grid=grid, density=density, bandwidth=sigma, n_samples=0)


def random_kde_pair(rng: np.random.Generator):
    """Two KDEs of nearby random samples on one shared grid."""
    a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=40)
    b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=40)
    bw = rng.uniform(0.3, 1.5)
    grid = shared_grid(a, b, bw)
    return estimate_kde(a, bw, grid), estimate_kde(b, bw, grid)


# Entropy refuses densities whose grid mass strays further than this from 1.
_MASS_TOLERANCE = 1e-2


class UnnormalizedDensity(DriftcastError):
    """Density mass deviates too far from 1 for an entropy computation."""


def shannon_entropy(p: DensityEstimate, base: float = 2.0) -> float:
    """Differential entropy -integral p log p, trapezoid rule, 0 log 0 = 0."""
    mass = p.mass()
    if abs(mass - 1.0) > _MASS_TOLERANCE:
        raise UnnormalizedDensity(f"density mass {mass:.4f} deviates from 1")
    d = p.density
    integrand = np.zeros_like(d)
    pos = d > 0
    integrand[pos] = -d[pos] * np.log(d[pos])
    return float(np.trapezoid(integrand, dx=p.grid.spacing)) / math.log(base)


def jsd_entropy(p: DensityEstimate, q: DensityEstimate) -> float:
    """Entropy form H(m) - (H(p) + H(q)) / 2 in bits: the cross-check oracle
    for the mixture form that `jsd` computes."""
    _require_same_grid(p, q)
    m = DensityEstimate(grid=p.grid, density=0.5 * (p.density + q.density),
                        bandwidth=p.bandwidth, n_samples=p.n_samples + q.n_samples)
    return shannon_entropy(m) - 0.5 * (shannon_entropy(p) + shannon_entropy(q))


# --- per-row CSV reader and writer: the oracles for the column-wise ones ------

def reference_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def reference_parse_load_csv(path, schema=(CSV_TIMESTAMP_COLUMN, CSV_VALUE_COLUMN)):
    """Read a CSV one reading at a time, sorting Python datetimes. Its one
    known fault: a misaligned row is reported at its sorted position + 2,
    not at its line in the file."""
    ts_col, val_col = schema
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySeries(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        try:
            ts_idx = header.index(ts_col)
            val_idx = header.index(val_col)
        except ValueError:
            raise UnparseableRow(1, f"header must contain {ts_col!r} and {val_col!r}, "
                                    f"got {header}") from None
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(ts_idx, val_idx):
                raise UnparseableRow(line_number, f"expected {len(header)} columns, got {len(row)}")
            try:
                ts = reference_timestamp(row[ts_idx])
            except ValueError as exc:
                raise UnparseableRow(line_number, f"bad timestamp {row[ts_idx]!r}: {exc}") from None
            try:
                value = float(row[val_idx])
            except ValueError:
                raise UnparseableRow(line_number, f"bad value {row[val_idx]!r}") from None
            if not math.isfinite(value):
                raise UnparseableRow(line_number, f"non-finite value {row[val_idx]!r}")
            if value < 0:
                raise NegativeReading(f"line {line_number}: negative reading {value}")
            if rows and (ts.tzinfo is None) != (rows[0][0].tzinfo is None):
                raise UnparseableRow(line_number, "mixed aware and naive timestamps")
            rows.append((ts, value))

    if not rows:
        raise EmptySeries(f"{path}: no data rows")

    rows.sort(key=lambda item: item[0])
    for (t_prev, _), (t_next, _) in zip(rows, rows[1:]):
        if t_next <= t_prev:
            raise NonMonotoneTimestamps(f"timestamp {t_next.isoformat()} repeats")

    start = rows[0][0]
    if len(rows) == 1:
        return LoadSeries(start_time=start, resolution=DEFAULT_RESOLUTION,
                          values=np.array([rows[0][1]]))

    counts = Counter(b[0] - a[0] for a, b in zip(rows, rows[1:]))
    resolution = max(counts.items(), key=lambda kv: (kv[1], -kv[0].total_seconds()))[0]

    step = resolution.total_seconds()
    n_slots = int(round((rows[-1][0] - start).total_seconds() / step)) + 1
    values = np.full(n_slots, np.nan)
    for line_offset, (ts, value) in enumerate(rows):
        exact = (ts - start).total_seconds() / step
        slot = int(round(exact))
        if abs(exact - slot) > 1e-6 or slot >= n_slots:
            raise UnparseableRow(line_offset + 2,
                                 f"timestamp {ts.isoformat()} is not aligned with the "
                                 f"inferred {resolution} resolution")
        values[slot] = value
    return LoadSeries(start_time=start, resolution=resolution, values=values)


def reference_write_load_csv(series: LoadSeries, path) -> None:
    """Write one csv.writer row per present slot: isoformat() and repr()."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([CSV_TIMESTAMP_COLUMN, CSV_VALUE_COLUMN])
        for i, value in enumerate(series.values):
            if np.isnan(value):
                continue
            writer.writerow([series.timestamp_at(i).isoformat(), repr(float(value))])


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
