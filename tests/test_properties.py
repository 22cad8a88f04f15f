"""Property tests: divergence bounds, p-value order, nested taus, exact kernel sums."""
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings, strategies as st

from driftcast.density import estimate_kde, kernel_sum, shared_grid
from driftcast.divergence import jsd
from driftcast.drift import DriftState, advance, decide, init_drift_state, p_value
from driftcast.ingest import DaySample

# Derandomized so the suite stays reproducible; no deadline on a shared machine.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
samples = st.lists(finite, min_size=1, max_size=40)
bandwidths = st.floats(min_value=0.05, max_value=5.0)
unit = st.floats(min_value=0.0, max_value=1.0)


@PROPERTY
@given(samples, samples, bandwidths)
def test_jsd_is_symmetric_and_bounded(a, b, bandwidth):
    grid = shared_grid(a, b, bandwidth)
    p, q = estimate_kde(a, bandwidth, grid), estimate_kde(b, bandwidth, grid)
    forward, backward = jsd(p, q).value, jsd(q, p).value
    assert forward == backward
    assert 0.0 <= forward <= 1.0


def _history_state(history):
    return DriftState(reference_readings=np.zeros(1),
                      divergence_history=np.asarray(history, float),
                      load_bandwidth=1.0)


@PROPERTY
@given(st.lists(unit, min_size=2, max_size=60), unit, unit)
def test_p_value_is_non_increasing_in_the_divergence(history, x, y):
    state = _history_state(history)
    low, high = min(x, y), max(x, y)
    assert p_value(state, low) >= p_value(state, high) - 1e-12


def _days(levels, rng, readings_per_day=48):
    start = date(2024, 1, 1)
    return [DaySample(day=start + timedelta(days=i),
                      readings=rng.normal(level, 1.0, readings_per_day))
            for i, level in enumerate(levels)]


def _fired(days, tau):
    state = init_drift_state(days[:4], load_bandwidth=1.0)
    fired = set()
    for day in days[4:]:
        decision = decide(state, day, tau)
        if decision.is_drift:
            fired.add(day.day)
        state = advance(state, day, decision.divergence)
    return fired


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2**16), unit, unit)
def test_drift_at_a_lower_tau_fires_at_every_higher_tau(shifts, seed, tau_x, tau_y):
    days = _days([10.0] * 4 + [10.0 + s for s in shifts], np.random.default_rng(seed))
    assert _fired(days, min(tau_x, tau_y)) <= _fired(days, max(tau_x, tau_y))


@PROPERTY
@given(st.integers(min_value=1, max_value=700), st.integers(min_value=0, max_value=2**16),
       bandwidths, st.integers(min_value=0, max_value=700))
def test_blocked_kernel_sum_equals_one_shot_sum_bitwise(n, seed, bandwidth, cut):
    # Sizes past the 256-row block, and a resumed sum cut anywhere.
    v = np.random.default_rng(seed).normal(0.0, 5.0, n)
    points = np.linspace(v.min() - 1.0, v.max() + 1.0, 64)
    z = (points[None, :] - v[:, None]) / bandwidth
    one_shot = np.exp(-0.5 * z * z).sum(axis=0)
    cut = min(cut, n)
    resumed = kernel_sum(v[cut:], bandwidth, points, kernel_sum(v[:cut], bandwidth, points))
    assert kernel_sum(v, bandwidth, points).tobytes() == one_shot.tobytes()
    assert resumed.tobytes() == one_shot.tobytes()
