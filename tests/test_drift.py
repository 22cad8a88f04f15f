"""Detector behavior: initialization, divergence, dynamic p-value, advance."""
import dataclasses
import math
from datetime import date, timedelta

import numpy as np
import pytest

from driftcast.density import Grid, estimate_kde, shared_grid
from driftcast.divergence import sqrt_jsd
from driftcast.drift import (
    advance,
    compute_divergence,
    decide,
    init_drift_state,
    p_value,
    tail_mass,
)
from driftcast.errors import EmptyHistory, InsufficientHistory, OutOfRangeDivergence
from driftcast.ingest import DaySample

BASE_DAY = date(2024, 1, 1)


def make_day(index: int, readings) -> DaySample:
    return DaySample(day=BASE_DAY + timedelta(days=index), readings=np.asarray(readings, float))


def stationary_days(rng, n, level=10.0, sd=1.0, rpd=144):
    return [make_day(i, rng.normal(level, sd, rpd)) for i in range(n)]


def oracle_sqrt_jsd(a, b, bandwidth, n_points=4001):
    """Independent fine-grid quadrature of the sqrt-JSD between two KDEs."""
    lo = min(a.min(), b.min()) - 5 * bandwidth
    hi = max(a.max(), b.max()) + 5 * bandwidth
    xs = np.linspace(lo, hi, n_points)

    def kde(values):
        z = (xs[:, None] - values[None, :]) / bandwidth
        return np.exp(-0.5 * z * z).sum(axis=1) / (values.size * bandwidth
                                                   * math.sqrt(2 * math.pi))

    p, q = kde(np.asarray(a)), kde(np.asarray(b))
    m = 0.5 * (p + q)

    def kl_bits(pd, md):
        mask = pd > 0
        integrand = np.zeros_like(pd)
        integrand[mask] = pd[mask] * np.log2(pd[mask] / md[mask])
        return float(np.trapezoid(integrand, xs))

    value = 0.5 * (kl_bits(p, m) + kl_bits(q, m))
    return math.sqrt(min(max(value, 0.0), 1.0))


class TestInit:
    def test_three_days_give_two_divergences(self):
        rng = np.random.default_rng(0)
        state = init_drift_state(stationary_days(rng, 3), load_bandwidth=1.0)
        assert state.divergence_history.size == 2

    def test_identical_days_give_zero_divergence(self):
        readings = np.linspace(5.0, 15.0, 144)
        days = [make_day(0, readings), make_day(1, readings)]
        state = init_drift_state(days, load_bandwidth=1.0)
        assert abs(state.divergence_history[0]) < 1e-6

    def test_single_day_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InsufficientHistory):
            init_drift_state(stationary_days(rng, 1), load_bandwidth=1.0)

    def test_reference_pool_holds_all_training_readings(self):
        rng = np.random.default_rng(2)
        days = stationary_days(rng, 4)
        state = init_drift_state(days, load_bandwidth=1.0)
        assert state.reference_readings.size == 4 * 144


class TestComputeDivergence:
    def test_same_distribution_is_small(self):
        rng = np.random.default_rng(3)
        state = init_drift_state(stationary_days(rng, 10), load_bandwidth=1.0)
        new_day = make_day(10, rng.normal(10.0, 1.0, 144))
        assert compute_divergence(state, new_day) <= 0.05

    def test_large_shift_is_near_one_and_matches_oracle(self):
        rng = np.random.default_rng(4)
        state = init_drift_state(stationary_days(rng, 10), load_bandwidth=1.0)
        shifted = make_day(10, rng.normal(10.0 + 10.0, 1.0, 144))
        value = compute_divergence(state, shifted)
        oracle = oracle_sqrt_jsd(shifted.readings, state.reference_readings, 1.0)
        assert value >= 0.9
        assert value == pytest.approx(oracle, abs=0.02)

    def test_consistent_with_direct_sqrt_jsd(self):
        rng = np.random.default_rng(5)
        state = init_drift_state(stationary_days(rng, 5), load_bandwidth=1.0)
        new_day = make_day(5, rng.normal(11.0, 1.0, 144))
        grid = shared_grid(new_day.readings, state.reference_readings, 1.0)
        direct = sqrt_jsd(estimate_kde(new_day.readings, 1.0, grid),
                          estimate_kde(state.reference_readings, 1.0, grid))
        assert compute_divergence(state, new_day) == direct.value

    def test_does_not_mutate_state(self):
        rng = np.random.default_rng(6)
        state = init_drift_state(stationary_days(rng, 5), load_bandwidth=1.0)
        before = state.divergence_history.copy()
        compute_divergence(state, make_day(5, rng.normal(10, 1, 144)))
        assert np.array_equal(state.divergence_history, before)


def _three_branch_tail_mass(history, probe, bandwidth, domain=(0.0, 1.0), n_points=512):
    """tail_mass as it was written before the probe was clamped: the ends as
    their own branches, all mass at or below lo and none at or above hi."""
    lo, hi = domain[0] - 5.0 * bandwidth, domain[1] + 5.0 * bandwidth
    grid = Grid(lo=lo, hi=hi, n_points=n_points)
    dens = estimate_kde(np.asarray(history, dtype=float), bandwidth, grid).density
    pts = grid.points
    if probe <= lo:
        mass = float(np.trapezoid(dens, pts))
    elif probe >= hi:
        mass = 0.0
    else:
        k = int(np.searchsorted(pts, probe, side="left"))
        mass = float(np.trapezoid(dens[k:], pts[k:])) if k < len(pts) else 0.0
        if k > 0 and k < len(pts):
            d_probe = float(np.interp(probe, pts, dens))
            mass += 0.5 * (d_probe + dens[k]) * float(pts[k] - probe)
    return float(min(max(mass, 0.0), 1.0))


def _state_with_history(history, rng=None):
    rng = rng or np.random.default_rng(7)
    base = init_drift_state(stationary_days(rng, 2), load_bandwidth=1.0)
    return dataclasses.replace(base, divergence_history=np.asarray(history, float))


class TestPValue:
    def test_deep_left_tail_is_near_one(self):
        rng = np.random.default_rng(8)
        history = rng.uniform(0.3, 0.6, 50)
        state = _state_with_history(history)
        assert p_value(state, 0.05) >= 0.9

    def test_median_probe_matches_rank_oracle(self):
        rng = np.random.default_rng(9)
        history = rng.beta(2.0, 5.0, size=101)
        state = _state_with_history(history)
        probe = float(np.median(history))
        rank_oracle = np.sum(history > probe) / history.size  # = 50/101
        p = p_value(state, probe)
        assert p == pytest.approx(0.5, abs=0.1)
        assert p == pytest.approx(rank_oracle, abs=0.1)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(10)
        state = _state_with_history(rng.uniform(0.1, 0.5, 40))
        probes = np.linspace(0.0, 1.0, 21)
        values = [p_value(state, float(d)) for d in probes]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_strictly_below_one_for_nonnegative_probe(self):
        # The [0,1] domain excludes kernel mass below 0, so tau=1 always fires.
        state = _state_with_history([0.4, 0.45, 0.5])
        assert p_value(state, 0.0) < 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_tail_mass_matches_the_three_branch_form_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        history = rng.beta(2.0, 5.0, size=int(rng.integers(2, 60)))
        bandwidth = float(rng.uniform(1e-3, 0.2))
        lo, hi = -5.0 * bandwidth, 1.0 + 5.0 * bandwidth
        points = Grid(lo=lo, hi=hi).points
        probes = [lo - 1.0, lo - 1e-12, lo, *rng.uniform(lo, hi, 20), points[1], points[-2],
                  0.0, 1.0, hi, hi + 1e-12, hi + 1.0]
        for probe in probes:
            got = tail_mass(history, float(probe), bandwidth)
            want = _three_branch_tail_mass(history, float(probe), bandwidth)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), probe

    def test_empty_history_rejected(self):
        state = _state_with_history([])
        with pytest.raises(EmptyHistory):
            p_value(state, 0.3)


class TestDecide:
    def test_is_drift_iff_p_below_tau(self):
        rng = np.random.default_rng(11)
        state = init_drift_state(stationary_days(rng, 8), load_bandwidth=1.0)
        shifted = make_day(8, rng.normal(20.0, 1.0, 144))
        decision = decide(state, shifted, tau=0.07)
        assert decision.is_drift == (decision.p_value < 0.07)
        assert decision.is_drift  # a 10-sigma shift must alarm

    def test_tau_zero_never_fires(self):
        rng = np.random.default_rng(12)
        state = init_drift_state(stationary_days(rng, 8), load_bandwidth=1.0)
        shifted = make_day(8, rng.normal(25.0, 1.0, 144))
        assert decide(state, shifted, tau=0.0).is_drift is False

    def test_tau_one_always_fires(self):
        rng = np.random.default_rng(13)
        state = init_drift_state(stationary_days(rng, 8), load_bandwidth=1.0)
        ordinary = make_day(8, rng.normal(10.0, 1.0, 144))
        assert decide(state, ordinary, tau=1.0).is_drift is True

    def test_invalid_tau_rejected(self):
        rng = np.random.default_rng(14)
        state = init_drift_state(stationary_days(rng, 3), load_bandwidth=1.0)
        with pytest.raises(ValueError):
            decide(state, make_day(3, rng.normal(10, 1, 144)), tau=1.5)


class TestAdvance:
    def test_history_and_pool_grow(self):
        rng = np.random.default_rng(15)
        state = init_drift_state(stationary_days(rng, 4), load_bandwidth=1.0)
        new_day = make_day(4, rng.normal(10, 1, 144))
        advanced = advance(state, new_day, 0.25)
        assert advanced.divergence_history.size == state.divergence_history.size + 1
        assert advanced.reference_readings.size == state.reference_readings.size + 144
        assert advanced.divergence_history[-1] == 0.25

    def test_out_of_range_divergence_rejected(self):
        rng = np.random.default_rng(16)
        state = init_drift_state(stationary_days(rng, 3), load_bandwidth=1.0)
        day = make_day(3, rng.normal(10, 1, 144))
        with pytest.raises(OutOfRangeDivergence):
            advance(state, day, 1.2)
        with pytest.raises(OutOfRangeDivergence):
            advance(state, day, -0.1)

    def test_original_state_untouched(self):
        rng = np.random.default_rng(17)
        state = init_drift_state(stationary_days(rng, 3), load_bandwidth=1.0)
        n = state.divergence_history.size
        advance(state, make_day(3, rng.normal(10, 1, 144)), 0.1)
        assert state.divergence_history.size == n


def _run_detector(days, eval_days, tau, bandwidth=1.0):
    state = init_drift_state(days, load_bandwidth=bandwidth)
    decisions = []
    for day in eval_days:
        decision = decide(state, day, tau)
        decisions.append(decision)
        state = advance(state, day, decision.divergence)
    return decisions


class TestStreamProperties:
    def test_determinism(self):
        rng = np.random.default_rng(18)
        days = stationary_days(rng, 6)
        evals = stationary_days(np.random.default_rng(19), 8)
        first = _run_detector(days, evals, tau=0.1)
        second = _run_detector(days, evals, tau=0.1)
        assert [(d.divergence, d.p_value, d.is_drift) for d in first] == \
               [(d.divergence, d.p_value, d.is_drift) for d in second]

    def test_sensitivity_ordering_is_nested(self):
        rng = np.random.default_rng(20)
        days = stationary_days(rng, 6)
        evals = [make_day(6 + i, rng.normal(10 + i, 1.0, 144)) for i in range(8)]
        fired = {}
        for tau in (0.07, 0.10, 0.15):
            decisions = _run_detector(days, evals, tau)
            fired[tau] = {d.day_index for d in decisions if d.is_drift}
        assert fired[0.07] <= fired[0.10] <= fired[0.15]

    def test_decisions_invariant_under_log_base_rescaling(self):
        # Recompute the stream with divergences in nats (scaled by sqrt(ln 2));
        # Silverman bandwidth scales along, so every drift flag must agree.
        rng = np.random.default_rng(21)
        days = stationary_days(rng, 8)
        evals = [make_day(8 + i, rng.normal(10 + 0.8 * i, 1.0, 144)) for i in range(10)]
        decisions = _run_detector(days, evals, tau=0.1)

        from driftcast.density import silverman_bandwidth

        scale = math.sqrt(math.log(2.0))
        state = init_drift_state(days, load_bandwidth=1.0)
        history = state.divergence_history * scale
        flags = []
        for day, original in zip(evals, decisions):
            div = compute_divergence(state, day) * scale
            bw = max(silverman_bandwidth(history), 1e-3 * scale)
            p = tail_mass(history, div, bw, domain=(0.0, scale))
            flags.append(p < 0.1)
            history = np.append(history, div)
            state = advance(state, day, original.divergence)
        assert flags == [d.is_drift for d in decisions]


# --- pool sums ----------------------------------------------------------------
#
# The detector holds the pool inside its running kernel sum. These tests hold
# it to estimate_kde over the whole pool bit for bit: a pool that crosses 4,096
# readings inside a day (so a chunked sum in only one of the two fails), days
# that set new pool extremes, and a mean shift.

def _cache_stream():
    rng = np.random.default_rng(30)
    days = []
    for i in range(40):
        level = 10.0 if i < 30 else 13.0  # mean shift on day 30
        readings = rng.normal(level, 1.0, 144)
        if i in (12, 25):
            readings[7] = level + 8.0  # a new pool maximum
        if i == 18:
            readings[99] = level - 8.0  # a new pool minimum
        days.append(make_day(i, readings))
    return days


def _exact_divergence(pool, readings, bandwidth=1.0):
    grid = shared_grid(readings, pool, bandwidth)
    return sqrt_jsd(estimate_kde(readings, bandwidth, grid),
                    estimate_kde(pool, bandwidth, grid)).value


class TestPoolCache:
    def test_stream_exercises_every_path(self):
        days = _cache_stream()
        assert 4096 % 144 != 0 and len(days) * 144 > 4096
        state = init_drift_state(days[:2], load_bandwidth=1.0)
        hits = misses = 0
        for day in days[2:]:
            grid = shared_grid(day.readings, state.reference_readings, 1.0)
            if state.grid == grid:
                hits += 1
            else:
                misses += 1
            state = advance(state, day, compute_divergence(state, day))
        assert hits > 20 and misses >= 3

    def test_init_matches_exact_prefix_loop_bitwise(self):
        days = _cache_stream()
        state = init_drift_state(days, load_bandwidth=1.0)
        expected = [_exact_divergence(np.concatenate([d.readings for d in days[:k]]),
                                      days[k].readings) for k in range(1, len(days))]
        assert state.divergence_history.tobytes() == np.array(expected).tobytes()
        assert state.reference_readings.tobytes() == \
               np.concatenate([d.readings for d in days]).tobytes()

    def test_decide_advance_match_exact_path_bitwise(self):
        days = _cache_stream()
        state = init_drift_state(days[:3], load_bandwidth=1.0)
        history = list(state.divergence_history)
        for day in days[3:]:
            decision = decide(state, day, 0.1)
            exact = _exact_divergence(state.reference_readings, day.readings)
            p = p_value(state, exact)
            assert (decision.divergence, decision.p_value, decision.is_drift) == \
                   (exact, p, p < 0.1)
            state = advance(state, day, decision.divergence)
            history.append(exact)
        assert state.divergence_history.tobytes() == np.array(history).tobytes()

    def test_pool_cannot_be_replaced_apart_from_its_sums(self):
        rng = np.random.default_rng(31)
        state = init_drift_state(stationary_days(rng, 3), load_bandwidth=1.0)
        assert state.reference_readings is state.pool
        with pytest.raises(TypeError):
            dataclasses.replace(state, reference_readings=state.reference_readings + 5.0)

    def test_new_extreme_day_sums_the_pool_once(self, monkeypatch):
        # decide and advance share the old pool's sums on the new grid: the
        # pool is summed once, plus the day's readings for its own KDE and
        # for the extension, plus the p-value's divergence history.
        from driftcast import density, drift

        rows = []
        real = density.kernel_sum

        def counting(values, *args, **kwargs):
            rows.append(len(values))
            return real(values, *args, **kwargs)

        monkeypatch.setattr(density, "kernel_sum", counting)
        monkeypatch.setattr(drift, "kernel_sum", counting)
        days = _cache_stream()
        state = init_drift_state(days[:12], load_bandwidth=1.0)
        day = days[12]  # sets a new pool maximum
        grid = shared_grid(day.readings, state.reference_readings, 1.0)
        assert state.grid != grid
        pool_size = state.reference_readings.size
        rows.clear()
        decision = decide(state, day, 0.1)
        advanced = advance(state, day, decision.divergence)
        assert sum(rows) == (pool_size + 2 * day.readings.size
                             + state.divergence_history.size)
        assert advanced.grid == grid
        assert decision.divergence == _exact_divergence(state.reference_readings,
                                                        day.readings)

    def test_advance_leaves_the_old_cache_untouched(self):
        days = _cache_stream()
        state = init_drift_state(days[:5], load_bandwidth=1.0)
        before = state.pool_sum.copy()
        advance(state, days[5], 0.1)
        assert state.pool_sum.tobytes() == before.tobytes()


def test_numpy_axis0_sum_adds_rows_in_order():
    # Byte-exactness of the cached pool sum relies on this: a C-ordered
    # axis-0 sum adds row after row, with no pairwise regrouping.
    rng = np.random.default_rng(32)
    for shape in ((2, 5), (257, 512), (700, 513)):
        rows = np.exp(rng.normal(0.0, 6.0, shape))
        in_order = rows[0].copy()
        for row in rows[1:]:
            in_order = in_order + row
        assert rows.sum(axis=0).tobytes() == in_order.tobytes()
