"""Layer probes: public functions timed on fixed inputs, independent of the seed.

- forecaster: one fwd/bwd batch of 32 windows, and one training step (that
  batch through public `train`: fwd/bwd plus Adam), at 8, 64, 256, 512 units;
- drift: `init_drift_state` on 30 and 60 days, and `decide` against a state
  grown to 30, 120 and 365 pool days by `init_drift_state` on 2 days plus
  public `advance` calls;
- hpo: `propose` on the full default grid (288 points) after 14 trials.
"""
from __future__ import annotations

import statistics
from time import process_time

import numpy as np

from workloads import PROFILE_BASE, PROFILE_PEAKS

UNITS = (8, 64, 256, 512)
BATCH = 32
POOL_DAYS = (30, 120, 365)
INIT_DAYS = (30, 60)
LOAD_BANDWIDTH = 1.0
PRIOR_TRIALS = 14


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        started = process_time()
        fn()
        times.append(process_time() - started)
    return 1e3 * statistics.median(times)


def forecaster_probes(package, reps: int = 5) -> dict[str, float]:
    fc = package.forecaster
    rng = np.random.default_rng(0)
    inputs = rng.random((BATCH, fc.DEFAULT_INPUT_LEN))
    targets = rng.random((BATCH, fc.DEFAULT_HORIZON))
    windows = [fc.SupervisedWindow(input=x, target=y) for x, y in zip(inputs, targets)]
    out = {}
    for units in UNITS:
        model = fc.new_model(fc.Hyperparameters(learning_rate=0.001, dropout_rate=0.0,
                                                n_units=units),
                             fc.NormStats(vmin=0.0, vmax=1.0))
        out[f"forecaster.fwd_bwd_ms.u{units}"] = _median_ms(
            lambda: fc.loss_and_gradients(model.weights, inputs, targets), reps)
        out[f"forecaster.step_ms.u{units}"] = _median_ms(
            lambda: fc.train(model, windows, [], epochs=1, batch_size=BATCH, patience=None),
            reps)
    return out


def drift_probes(package, reps: int = 3) -> dict[str, float]:
    ingest, drift = package.ingest, package.drift
    stream = ingest.generate_synthetic(
        ingest.DailyProfile(base=PROFILE_BASE, peaks=PROFILE_PEAKS), [],
        noise_sd=0.35, seed=0, n_days=max(POOL_DAYS) + 1)
    days = list(ingest.segment_days(stream))
    divergences = np.random.default_rng(1).uniform(0.05, 0.3, size=len(days))
    out = {}
    for n in INIT_DAYS:
        started = process_time()
        drift.init_drift_state(days[:n], LOAD_BANDWIDTH)
        out[f"drift.init_s.d{n}"] = process_time() - started
    state = drift.init_drift_state(days[:2], LOAD_BANDWIDTH)
    for n in range(2, max(POOL_DAYS) + 1):
        if n in POOL_DAYS:
            out[f"drift.decide_ms.d{n}"] = _median_ms(
                lambda: drift.decide(state, days[n], 0.15), reps)
        if n < max(POOL_DAYS):
            state = drift.advance(state, days[n], float(divergences[n]))
    return out


def hpo_probes(package, reps: int = 5) -> dict[str, float]:
    hpo = package.hpo
    space = hpo.SearchSpace()
    points = space.all_points()
    rng = np.random.default_rng(2)
    history = [hpo.TrialRecord(hyperparameters=points[i], score=float(score), duration=0.0)
               for i, score in zip(rng.permutation(len(points))[:PRIOR_TRIALS],
                                   rng.uniform(5.0, 15.0, size=PRIOR_TRIALS))]
    return {"hpo.propose_ms.full_grid":
            _median_ms(lambda: hpo.propose(history, space, seed=0), reps)}


def all_probes(package) -> dict[str, float]:
    return {**forecaster_probes(package), **drift_probes(package), **hpo_probes(package)}
