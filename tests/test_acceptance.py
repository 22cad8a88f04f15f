"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The trade-off-table regression (criterion 8) is parametrized per
cell; the household 9 / tau=0.07 cell is internally inconsistent in the
published table itself (13.07 / 7.27 = 1.80, printed as 1.88), so that
single case fails by design rather than being papered over.
"""
import json
import math
import time

import numpy as np
import pytest

from driftcast.density import Grid, estimate_kde, shared_grid
from driftcast.divergence import jsd, kl_divergence, sqrt_jsd
from driftcast.drift import advance, decide, init_drift_state
from driftcast.evaluation import mape, rmse
from driftcast.forecaster import LstmWeights, loss_and_gradients
from driftcast.hpo import SearchSpace, optimize
from driftcast.ingest import DailyProfile, DriftEvent, generate_synthetic, segment_days
from driftcast.pipeline import run_active, run_baseline, run_passive

from conftest import (
    SWEEP_SEEDS,
    exact_gaussian,
    jsd_entropy,
    scenario_config,
    scenario_series,
)


def _line(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status} - {detail}")
    assert ok, detail


def test_criterion_01_divergence_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)

    worst_pair_gap = 0.0
    for _ in range(500):
        a = rng.normal(rng.uniform(-3, 3), rng.uniform(0.4, 2.0), 40)
        b = rng.normal(rng.uniform(-3, 3), rng.uniform(0.4, 2.0), 40)
        bw = rng.uniform(0.3, 1.5)
        grid = shared_grid(a, b, bw)
        p = estimate_kde(a, bw, grid)
        q = estimate_kde(b, bw, grid)
        forward = jsd(p, q).value
        backward = jsd(q, p).value
        assert abs(forward - backward) <= 1e-12
        assert 0.0 <= forward <= 1.0
        worst_pair_gap = max(worst_pair_gap, abs(forward - jsd_entropy(p, q)))
    assert worst_pair_gap <= 1e-6

    grid = Grid(lo=-14.0, hi=14.0, n_points=512)
    worst_slack = -np.inf
    for _ in range(200):
        p, q, r = (estimate_kde(rng.normal(rng.uniform(-4, 4),
                                           rng.uniform(0.4, 2.0), 30),
                                rng.uniform(0.4, 1.5), grid)
                   for _ in range(3))
        violation = (sqrt_jsd(p, r).value - sqrt_jsd(p, q).value
                     - sqrt_jsd(q, r).value)
        worst_slack = max(worst_slack, violation)
        assert violation <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _line(1, True, f"500 pairs symmetric/bounded, forms agree to {worst_pair_gap:.1e}, "
                   f"200 triples triangle slack {worst_slack:.1e}, {elapsed:.1f}s")


def test_criterion_02_kde_suite():
    started = time.perf_counter()

    center_grid = Grid(lo=-5.0, hi=5.0, n_points=1001)
    center = estimate_kde([0.0], 1.0, center_grid).density[500]
    center_err = abs(center - 1.0 / math.sqrt(2.0 * math.pi))
    assert center_err < 1e-5

    rng = np.random.default_rng(1002)
    worst_mass = 0.0
    for _ in range(20):
        values = rng.normal(rng.uniform(-10, 10), rng.uniform(0.5, 4.0), 200)
        bw = rng.uniform(0.3, 2.0)
        estimate = estimate_kde(values, bw, shared_grid(values, values, bw))
        worst_mass = max(worst_mass, abs(estimate.mass() - 1.0))
    assert worst_mass < 1e-3

    values = rng.normal(2.0, 1.0, 80)
    grid = Grid(lo=-2.0, hi=6.0, n_points=512)
    shift = 3.5
    moved = Grid(lo=grid.lo + shift, hi=grid.hi + shift, n_points=512)
    gap = np.max(np.abs(estimate_kde(values, 1.0, grid).density
                        - estimate_kde(values + shift, 1.0, moved).density))
    assert gap < 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _line(2, True, f"center err {center_err:.1e}, worst mass gap {worst_mass:.1e}, "
                   f"shift equivariance {gap:.1e}, {elapsed:.1f}s")


def test_criterion_03_gaussian_analytic_oracles():
    grid = Grid(lo=-8.0, hi=9.0, n_points=2048)
    p = exact_gaussian(grid, 0.0, 1.0)
    q = exact_gaussian(grid, 1.0, 1.0)

    kl = kl_divergence(p, q)  # nats; closed form is 0.5
    assert abs(kl - 0.5) < 1e-3

    xs = np.linspace(-8.0, 9.0, 200001)
    pd = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    qd = np.exp(-0.5 * (xs - 1.0) ** 2) / math.sqrt(2 * math.pi)
    md = 0.5 * (pd + qd)

    def kl_bits(a, b):
        mask = a > 0
        integrand = np.zeros_like(a)
        integrand[mask] = a[mask] * np.log2(a[mask] / b[mask])
        return float(np.trapezoid(integrand, xs))

    oracle = 0.5 * (kl_bits(pd, md) + kl_bits(qd, md))
    ours = jsd(p, q).value
    assert abs(ours - oracle) < 1e-4
    _line(3, True, f"KL(N(0,1)||N(1,1)) = {kl:.6f} nats, "
                   f"JSD vs fine-grid oracle gap {abs(ours - oracle):.1e}")


def test_criterion_04_lstm_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    weights = LstmWeights.initialize(n_units=4, horizon=6, rng=rng)
    inputs = rng.normal(0.5, 0.3, (3, 12))
    targets = rng.normal(0.5, 0.3, (3, 6))
    _, grads = loss_and_gradients(weights, inputs, targets)

    step = 1e-4
    worst = 0.0
    for name, arr in weights.as_dict().items():
        numeric = np.zeros_like(arr)
        flat, num_flat = arr.ravel(), numeric.ravel()
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + step
            up, _ = loss_and_gradients(weights, inputs, targets)
            flat[k] = original - step
            down, _ = loss_and_gradients(weights, inputs, targets)
            flat[k] = original
            num_flat[k] = (up - down) / (2 * step)
        rel = np.abs(grads[name] - numeric) / np.maximum(
            np.abs(grads[name]) + np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"{name}: {rel.max():.2e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    _line(4, True, f"max relative gradient error {worst:.2e} over "
                   f"{len(weights.NAMES)} tensors, {elapsed:.1f}s")


DETECTOR_PROFILE = DailyProfile(base=10.0, peaks=((8.0, 2.0, 3.0), (19.0, 3.0, 5.0)))
DETECTOR_NOISE = 0.5


def _detector_decisions(series, n_train, tau, bandwidth=1.0):
    days = list(segment_days(series))
    state = init_drift_state(days[:n_train], bandwidth)
    decisions = []
    for day in days[n_train:]:
        decision = decide(state, day, tau)
        decisions.append(decision)
        state = advance(state, day, decision.divergence)
    return decisions


def test_criterion_05_detector_on_synthetic_streams():
    started = time.perf_counter()
    seeds = range(20)

    # mean shift of 3 daily standard deviations, detected within two days
    probe = generate_synthetic(DETECTOR_PROFILE, [], noise_sd=DETECTOR_NOISE,
                               seed=0, n_days=5)
    shift = 3.0 * float(np.std(probe.values))
    detected = 0
    for seed in seeds:
        series = generate_synthetic(
            DETECTOR_PROFILE,
            [DriftEvent(day=22, kind="mean_shift", magnitude=shift)],
            noise_sd=DETECTOR_NOISE, seed=seed, n_days=27)
        decisions = _detector_decisions(series, n_train=15, tau=0.15)
        event_idx = 22 - 15 - 1
        detected += decisions[event_idx].is_drift or decisions[event_idx + 1].is_drift
    assert detected >= 0.9 * 20

    # stationary false-alarm rate at tau = 0.07 over 60 evaluation days
    rates = []
    for seed in seeds:
        series = generate_synthetic(DETECTOR_PROFILE, [], noise_sd=DETECTOR_NOISE,
                                    seed=seed, n_days=75)
        decisions = _detector_decisions(series, n_train=15, tau=0.07)
        rates.append(np.mean([d.is_drift for d in decisions]))
    false_alarm_rate = float(np.mean(rates))
    assert false_alarm_rate <= 0.15

    # sensitivity ordering must hold for every seed
    ordered = 0
    for seed in seeds:
        series = generate_synthetic(
            DETECTOR_PROFILE,
            [DriftEvent(day=22, kind="mean_shift", magnitude=shift)],
            noise_sd=DETECTOR_NOISE, seed=seed, n_days=30)
        counts = {tau: sum(d.is_drift for d in
                           _detector_decisions(series, n_train=15, tau=tau))
                  for tau in (0.07, 0.10, 0.15)}
        ordered += counts[0.07] <= counts[0.10] <= counts[0.15]
    assert ordered == 20

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _line(5, True, f"shift detected {detected}/20 within 2 days, false alarms "
                   f"{false_alarm_rate:.3f}/day, ordering 20/20, {elapsed:.0f}s")


def _error_payload(report) -> bytes:
    data = report.to_dict()
    for key in ("mode", "tau", "drift_decisions"):
        data.pop(key)
    return json.dumps(data, sort_keys=True).encode()


def test_criterion_06_pipeline_equivalences():
    started = time.perf_counter()
    series = scenario_series(0)

    baseline = run_baseline(scenario_config(0), series)
    tau_zero = run_active(scenario_config(0, "active", 0.0), series)
    assert tau_zero.adaptation_count == 0
    assert _error_payload(tau_zero) == _error_payload(baseline)

    passive = run_passive(scenario_config(0, "passive"), series)
    tau_one = run_active(scenario_config(0, "active", 1.0), series)
    assert tau_one.adaptation_count == passive.adaptation_count

    # future mutation must not change any earlier day's recorded errors
    import dataclasses
    mutated_values = series.values.copy()
    mutated_values[-70] += 4.0
    mutated = run_baseline(scenario_config(0),
                           dataclasses.replace(series, values=mutated_values))
    original_rows = [(e.day_index, e.mape, e.rmse) for e in baseline.daily_errors]
    mutated_rows = [(e.day_index, e.mape, e.rmse) for e in mutated.daily_errors]
    assert original_rows[:-1] == mutated_rows[:-1]
    assert original_rows[-1] != mutated_rows[-1]

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _line(6, True, f"tau=0 byte-equal to baseline, tau=1 adapts {tau_one.adaptation_count}x "
                   f"like passive, no-leakage mutation clean, {elapsed:.0f}s")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tau_one_report_equals_passive(scenario_sweep, seed):
    # Criterion 6 checks tau 1 by its adaptation count alone. A p-value is
    # always below 1, so every day adapts, as in passive mode, and the two
    # reports agree in every key but the mode, the tau and the decisions.
    tau_one = run_active(scenario_config(seed, "active", 1.0), scenario_series(seed))
    assert _error_payload(tau_one) == _error_payload(scenario_sweep[seed]["passive"])


def test_criterion_07_directional_table_ordering(scenario_sweep):
    started = time.perf_counter()
    chain_hits = 0
    improvements = []
    for seed in SWEEP_SEEDS:
        result = scenario_sweep[seed]
        base = result["baseline"].mean_mape
        passive = result["passive"].mean_mape
        active = result["active_015"].mean_mape
        chain_hits += passive < active < base
        improvements.append(100.0 * (base - passive) / base)
    mean_improvement = float(np.mean(improvements))

    assert chain_hits >= 0.7 * len(SWEEP_SEEDS)
    assert mean_improvement >= 15.0
    elapsed = time.perf_counter() - started
    _line(7, True, f"passive<active(0.15)<baseline in {chain_hits}/20 seeds, "
                   f"mean passive improvement {mean_improvement:.1f}%, "
                   f"checks {elapsed:.0f}s after shared sweep")


# Published reference benchmarks, frozen: per-household MAPE improvement
# (%), total adaptation cost (EUR) and trade-off score, for tau=0.07 /
# tau=0.10 / tau=0.15 / passive.
IMPROVEMENT_TABLE = {
    1: (27.74, 43.60, 50.91, 55.03),
    2: (0.49, 0.74, 13.58, 37.53),
    3: (1.29, 2.12, 10.28, 48.18),
    4: (0.00, 31.01, 41.46, 46.20),
    5: (0.00, 10.68, 11.00, 13.92),
    6: (0.00, 0.00, 17.28, 39.63),
    7: (27.52, 42.31, 52.64, 50.84),
    8: (1.64, 1.64, 11.13, 12.77),
    9: (13.07, 14.15, 16.55, 64.03),
}
COST_TABLE = {
    1: (7.53, 8.86, 9.88, 24.17),
    2: (7.44, 8.11, 11.02, 31.31),
    3: (4.56, 5.50, 6.50, 26.37),
    4: (0.00, 4.10, 4.91, 22.80),
    5: (0.00, 7.66, 9.89, 18.95),
    6: (0.00, 0.00, 2.52, 20.60),
    7: (5.96, 6.68, 8.45, 15.93),
    8: (9.42, 10.56, 12.56, 31.04),
    9: (7.27, 9.25, 10.47, 20.60),
}
TRADE_OFF_TABLE = {
    1: (3.68, 4.92, 5.15, 2.28),
    2: (0.07, 0.09, 1.23, 1.2),
    3: (0.28, 0.39, 1.58, 1.83),
    4: (0.00, 7.57, 8.44, 2.03),
    5: (0.00, 1.39, 1.11, 0.73),
    6: (0.00, 0.00, 6.87, 1.92),
    7: (4.62, 6.34, 6.23, 3.19),
    8: (0.17, 0.16, 0.89, 0.41),
    9: (1.88, 1.53, 1.58, 3.11),
}
STRATEGY_LABELS = ("tau=0.07", "tau=0.10", "tau=0.15", "passive")


@pytest.mark.parametrize("household", sorted(IMPROVEMENT_TABLE))
@pytest.mark.parametrize("column", range(4), ids=STRATEGY_LABELS)
def test_criterion_08_trade_off_table_regression(household, column):
    improvement = IMPROVEMENT_TABLE[household][column]
    cost = COST_TABLE[household][column]
    published = TRADE_OFF_TABLE[household][column]
    recomputed = improvement / cost if cost > 0 else 0.0
    assert recomputed == pytest.approx(published, abs=0.02), (
        f"household {household} {STRATEGY_LABELS[column]}: "
        f"{improvement}/{cost} = {recomputed:.4f} but the published cell is "
        f"{published} (the published table is internally inconsistent here)")


def test_criterion_08_unit_error_examples_exact():
    assert mape([100.0, 100.0], [90.0, 110.0]) == 10.0
    assert rmse([1.0, 1.0], [0.0, 2.0]) == 1.0
    _line(8, True, "MAPE/RMSE unit examples exact; table regression parametrized "
                   "per cell (35/36 reproduce; household 9 tau=0.07 is "
                   "inconsistent in the published table itself)")


def test_criterion_09_hpo_suite():
    started = time.perf_counter()

    def objective(hp):
        return ((math.log10(hp.learning_rate) + 3.0) ** 2
                + 4.0 * (hp.dropout_rate - 0.3) ** 2
                + ((hp.n_units - 256) / 480.0) ** 2)

    space = SearchSpace()
    points = space.all_points()
    grid_optimum = min(points, key=objective)  # exhaustive enumeration oracle

    hits = 0
    bo_best, rs_best = [], []
    for seed in range(20):
        best, history = optimize(objective, space, budget=20, seed=seed)
        keys = [(t.hyperparameters.learning_rate, t.hyperparameters.dropout_rate,
                 t.hyperparameters.n_units) for t in history]
        assert len(set(keys)) == len(keys), "repeated proposal"
        assert all(space.contains(t.hyperparameters) for t in history)
        hits += best == grid_optimum

        _, history15 = optimize(objective, space, budget=15, seed=seed)
        bo_best.append(min(t.score for t in history15))
        rng = np.random.default_rng([seed, 991])
        sample = rng.choice(len(points), size=15, replace=False)
        rs_best.append(min(objective(points[i]) for i in sample))

    assert hits >= 18
    assert np.mean(bo_best) <= np.mean(rs_best)
    elapsed = time.perf_counter() - started
    _line(9, True, f"grid optimum found in {hits}/20 seeds, surrogate best "
                   f"{np.mean(bo_best):.4f} <= random search {np.mean(rs_best):.4f}, "
                   f"{elapsed:.1f}s")


def test_criterion_10_run_determinism(tmp_path):
    from driftcast.cli import EXIT_OK, main

    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "base": 10.0, "peaks": [[9.0, 2.0, 4.0]], "noise_sd": 0.4,
        "events": [{"day": 10, "kind": "mean_shift", "magnitude": 5.0}],
    }))
    series = tmp_path / "series.csv"
    assert main(["synth", "--profile", str(profile), "--seed", "3",
                 "--days", "12", "--out", str(series)]) == EXIT_OK

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mode": "active", "tau": 0.15, "load_bandwidth": 1.0,
        "hpo_initial_budget": 2, "hpo_adapt_budget": 1, "hpo_fit_epochs": 1,
        "epochs_initial": 3, "epochs_incremental": 2, "patience": 2,
        "seed": 11, "deterministic_timing": True,
        "learning_rates": [0.001, 0.01], "dropout_rates": [0.0],
        "n_units_values": [6],
    }))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    base_args = ["run", "--config", str(config), "--input", str(series)]
    assert main(base_args + ["--out", str(first)]) == EXIT_OK
    assert main(base_args + ["--out", str(second)]) == EXIT_OK
    identical = first.read_bytes() == second.read_bytes()
    _line(10, identical, "two identical CLI runs produced byte-identical reports")
