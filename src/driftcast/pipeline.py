"""End-to-end runs: never-adapt baseline, passive and active adaptation.

One day loop serves all three modes; they differ only in the policy that
decides whether to adapt. Each test day is predicted with the model as of
the previous day's close, its 24 hourly errors are recorded, and only then
may the model adapt: every day in passive mode, on detector alarms in
active mode, never in baseline mode. Only active mode builds and consults
the detector; its state advances on every day regardless of the drift flag.
An adaptation tunes the non-structural hyperparameters on the new day's
windows and resumes training from the stored weights, so the update
benefits the *following* day.

Setting tau to 0 reproduces the baseline exactly; tau of 1 adapts every
day like the passive mode.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .drift import DriftDecision, advance, decide, init_drift_state
from .errors import ConfigError, MismatchedRuns, ZeroActual
from .evaluation import (
    DEFAULT_PRICE_RATE,
    EPSILON_ZERO,
    CostEntry,
    DailyError,
    EvaluationReport,
    HpoEventRecord,
    _field_types,
    _record,
    _typed,
    daily_error,
    improvement,
    mape as mape_metric,
    near_zero_actuals,
    series_digest,
    summarize_daily,
    trade_off_score,
)
from .forecaster import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_INPUT_LEN,
    DEFAULT_PATIENCE,
    ForecastModel,
    Hyperparameters,
    NormStats,
    SupervisedWindows,
    batch_forward,
    build_windows,
    incremental_update,
    new_model,
    predict_day,
    stack_windows,
    train,
)
from .hpo import (
    DEFAULT_DROPOUT_RATES,
    DEFAULT_LEARNING_RATES,
    DEFAULT_N_UNITS,
    SearchSpace,
    optimize,
    seeding_points,
)
from .ingest import (
    DaySample,
    LoadSeries,
    SplitSpec,
    resample_and_fill,
    segment_days,
    split_dataset,
)

MODES = ("baseline", "passive", "active")
# The least value of each integer setting.
_INT_BOUNDS = {"input_len": 1, "hpo_initial_budget": 1, "hpo_adapt_budget": 1, "hpo_fit_epochs": 1,
               "epochs_initial": 1, "epochs_incremental": 1, "batch_size": 1,
               "seed": 0, "patience": 0, "max_gap": 0}


@dataclass(frozen=True)
class RunConfig:
    mode: str = "baseline"
    tau: Optional[float] = None
    load_bandwidth: float = 10.0
    split: SplitSpec = field(default_factory=SplitSpec)
    input_len: int = DEFAULT_INPUT_LEN
    hpo_initial_budget: int = 15
    hpo_adapt_budget: int = 8
    hpo_fit_epochs: int = 3
    epochs_initial: int = 50
    epochs_incremental: int = 10
    batch_size: int = DEFAULT_BATCH_SIZE
    patience: int = DEFAULT_PATIENCE
    price_rate: float = DEFAULT_PRICE_RATE
    seed: int = 0
    max_gap: int = 6
    deterministic_timing: bool = False
    timing_coefficient: float = 1e-3
    learning_rates: tuple[float, ...] = DEFAULT_LEARNING_RATES
    dropout_rates: tuple[float, ...] = DEFAULT_DROPOUT_RATES
    n_units_values: tuple[int, ...] = DEFAULT_N_UNITS
    exclude_zero_actuals: bool = False
    retune_units_full_retrain: bool = False

    def __post_init__(self):
        try:  # each annotation, then the search space's rules: non-empty axes, valid points
            for name, kind in _field_types(RunConfig).items():  # held typed: a list as a tuple
                object.__setattr__(self, name, _typed(kind, getattr(self, name), name))
            SearchSpace(self.learning_rates, self.dropout_rates, self.n_units_values).all_points()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "active":
            if self.tau is None:
                raise ConfigError("active mode requires tau")
            if not 0.0 <= self.tau <= 1.0:
                raise ConfigError(f"tau must lie in [0, 1], got {self.tau}")
        elif self.tau is not None:
            raise ConfigError(f"tau only applies to active mode, not {self.mode!r}")
        for name, least in _INT_BOUNDS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("load_bandwidth", "price_rate"):  # `not >` rejects NaN too
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        value = self.timing_coefficient
        if not (value >= 0 and math.isfinite(value)):
            raise ConfigError(f"timing_coefficient must be finite and >= 0, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        try:
            return _record(cls, data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from None


def _derived_seed(seed: int, *parts: int) -> int:
    """Stable 31-bit sub-seed for a named stream of the run."""
    rng = np.random.default_rng([seed, 7, *parts])
    return int(rng.integers(0, 2**31 - 1))


# --- preparation ------------------------------------------------------------


@dataclass
class PreparedRun:
    digest: str
    horizon: int  # readings per hour: one forecast covers an hour
    train_days: list[DaySample]
    validation_days: list[DaySample]
    test_days: list[DaySample]
    norm: NormStats
    train_windows: SupervisedWindows
    val_windows: SupervisedWindows

    @property
    def pretest_days(self) -> list[DaySample]:
        return self.train_days + self.validation_days

    def windows(self, readings: np.ndarray, input_len: int) -> SupervisedWindows:
        """The supervised windows of raw `readings`, normalized as the run's."""
        return build_windows(self.norm.normalize(readings), input_len, self.horizon)

    def split_sizes(self) -> dict:
        return {
            "train_days": len(self.train_days),
            "validation_days": len(self.validation_days),
            "test_days": len(self.test_days),
        }


def prepare_run(config: RunConfig, series: LoadSeries) -> PreparedRun:
    filled = resample_and_fill(series, config.max_gap)
    days = list(segment_days(filled))
    train_days, val_days, test_days = split_dataset(days, config.split)
    if not (train_days and val_days and test_days):
        raise ConfigError(f"split leaves a part empty: {len(train_days)} train, "
                          f"{len(val_days)} validation and {len(test_days)} test days")
    per_day = train_days[0].readings.size
    horizon, rest = divmod(per_day, 24)
    if rest:
        raise ConfigError(f"{per_day} readings per day do not split into 24 hourly forecasts")
    train = np.concatenate([d.readings for d in train_days])
    pretest = np.concatenate([train, *(d.readings for d in val_days)])
    parts = {"train": train.size, "validation": pretest.size - train.size}
    if config.mode != "baseline":  # an adaptation trains on one day, scores on the day before
        parts["daily"] = per_day
    for part, size in parts.items():
        if config.input_len + horizon > size:
            raise ConfigError(f"input_len {config.input_len} + horizon {horizon} "
                              f"leaves no window in the {size} {part} readings")
    if not config.exclude_zero_actuals:
        _reject_zero_actuals(test_days)
    norm = NormStats.fit(train)
    train_windows = build_windows(norm.normalize(train), config.input_len, horizon)
    val_windows = build_windows(norm.normalize(pretest[train.size:]), config.input_len, horizon)
    return PreparedRun(digest=series_digest(filled.values), horizon=horizon,
                       train_days=train_days, validation_days=val_days,
                       test_days=test_days, norm=norm,
                       train_windows=train_windows, val_windows=val_windows)


def _reject_zero_actuals(test_days: Sequence[DaySample]) -> None:
    """Fail before training on a test day whose scoring would hit a zero."""
    for day in test_days:
        zeros = int(near_zero_actuals(day.readings).sum())
        if zeros:
            raise ZeroActual(f"test day {day.day} has {zeros} actual value(s) within "
                             f"{EPSILON_ZERO} of zero; set exclude_zero_actuals "
                             f"to score without them")


# --- scoring helpers -----------------------------------------------------------


def _validation_mape(model_norm: NormStats, weights, windows) -> float:
    inputs, targets = stack_windows(windows)
    predicted = batch_forward(weights, inputs)
    return mape_metric(model_norm.denormalize(targets),
                       model_norm.denormalize(predicted))


def _score_day(config: RunConfig, model: ForecastModel, context: np.ndarray,
               day: DaySample) -> DailyError:
    forecasts = predict_day(model, context, day.readings)
    pairs = list(zip(day.readings.reshape(24, -1), forecasts))  # one block per hour
    return daily_error(day.day, pairs, exclude_zero_actuals=config.exclude_zero_actuals)


# --- cost and model updates ----------------------------------------------------


def _charge(config: RunConfig, started: float, epochs: int, windows: int, fits: int = 1):
    """Seconds since perf_counter() read `started`, or with deterministic timing
    coefficient x epochs x windows x fits, so that reports carry no wall time."""
    if config.deterministic_timing:
        return config.timing_coefficient * epochs * max(windows, 1) * fits
    return time.perf_counter() - started


# Seeding trials stack only up to this width: from 56 units on a stack of 5
# measured slower than its members' separate steps (README, "Training cost").
_STACK_MAX_UNITS = 48


def _search(config: RunConfig, space: SearchSpace, budget: int, seed: int, fit,
            epochs: int, windows: int):
    """`optimize` whose first call for a seeding point of at most _STACK_MAX_UNITS
    units has `fit` train its same-width seeding group as one stack, giving each
    member's (score, result), held until its own trial. A trial's result replaces
    the kept one only on a lower score: ties go to the earliest, as optimize's min.

    Returns the best hyperparameters, their score, their result and the
    search's duration, charged as `epochs` over `windows` windows per trial.
    """
    started = time.perf_counter()
    seeding, pending, best = seeding_points(space, budget, seed), {}, {}

    def objective(hp: Hyperparameters) -> float:
        if hp not in pending:
            stacked = hp in seeding and hp.n_units <= _STACK_MAX_UNITS
            group = [p for p in seeding if p.n_units == hp.n_units] if stacked else [hp]
            pending.update(zip(group, fit(group)))
        score, result = pending.pop(hp)
        if not best or score < best["score"]:
            best.update(score=score, result=result)
        return score

    best_hp, trials = optimize(objective, space, budget=budget, seed=seed)
    return (best_hp, best["score"], best["result"],
            _charge(config, started, epochs, windows, len(trials)))


def _fresh_search(config: RunConfig, prep: PreparedRun, windows: SupervisedWindows,
                  budget: int, seed: int):
    """Full-space `_search` in which every trial trains a fresh network on
    `windows`; its result is the winning model."""
    space = SearchSpace(learning_rates=config.learning_rates,
                        dropout_rates=config.dropout_rates,
                        n_units_values=config.n_units_values)

    def fit(group: list[Hyperparameters]) -> list[tuple[float, ForecastModel]]:
        trained = train([new_model(hp, prep.norm, config.input_len, prep.horizon,
                                   rng_seed=config.seed) for hp in group], windows,
                        prep.val_windows, epochs=config.epochs_initial,
                        batch_size=config.batch_size, patience=config.patience)
        return [(_validation_mape(prep.norm, m.weights, prep.val_windows), m) for m in trained]

    return _search(config, space, budget, seed, fit, config.epochs_initial, len(windows))


def _update_model(config: RunConfig, prep: PreparedRun, model: ForecastModel,
                  index: int, event: int,
                  ) -> tuple[ForecastModel, float, float, Hyperparameters, float]:
    """One adaptation event on test day `index`; returns (model, hpo s, fit s,
    chosen hp, loss).

    By default the non-structural hyperparameters are tuned with short
    resumed fits on the new day's windows, scored on the most recent
    complete day. A probe starts from the final fit's weights, windows and
    rng, so the final fit continues the winning probe's run rather than
    replaying the epochs they share. With `retune_units_full_retrain` the
    network is rebuilt by a full search over everything seen; its trials
    are the fits, so the whole search counts as fitting time.
    """
    history = prep.pretest_days + prep.test_days[: index + 1]  # every day up to the new one
    day, previous_day = history[-1], history[-2]
    if config.retune_units_full_retrain:
        windows = prep.windows(np.concatenate([d.readings for d in history]), config.input_len)
        tuned, loss, retrained, duration = _fresh_search(
            config, prep, windows, config.hpo_adapt_budget, _derived_seed(config.seed, 2, event))
        return replace(retrained, version=model.version + 1), 0.0, duration, tuned, loss

    day_windows = prep.windows(day.readings, config.input_len)
    score_windows = prep.windows(previous_day.readings, config.input_len)
    space = SearchSpace(config.learning_rates, config.dropout_rates,
                        (model.hyperparameters.n_units,))

    def fit(group: list[Hyperparameters]) -> list[tuple[float, object]]:
        probes, runs = incremental_update(
            model, day_windows, group, epochs=config.hpo_fit_epochs, batch_size=config.batch_size,
            keep_run_after=min(config.hpo_fit_epochs, config.epochs_incremental))
        return [(_validation_mape(prep.norm, probe.weights, score_windows), run)
                for probe, run in zip(probes, runs)]

    tuned, loss, best_run, hpo_duration = _search(
        config, space, config.hpo_adapt_budget, _derived_seed(config.seed, 1, event), fit,
        config.hpo_fit_epochs, len(day_windows))
    started = time.perf_counter()
    updated = incremental_update(model, day_windows, tuned,
                                 epochs=config.epochs_incremental,
                                 batch_size=config.batch_size, resume=best_run)
    fit_duration = _charge(config, started, config.epochs_incremental, len(day_windows))
    return updated, hpo_duration, fit_duration, tuned, loss


# --- the run -----------------------------------------------------------------


def run(config: RunConfig, series: LoadSeries) -> EvaluationReport:
    """Score every test day, then adapt as the mode's policy says."""
    prep = prepare_run(config, series)
    best_hp, loss, model, duration = _fresh_search(
        config, prep, prep.train_windows, config.hpo_initial_budget, _derived_seed(config.seed, 0))
    costs = [CostEntry(prep.pretest_days[-1].day, "initial_training", duration)]
    hpo_events = [HpoEventRecord(event=0, day_index=None, loss=loss, **asdict(best_hp))]

    active = config.mode == "active"
    if active:  # baseline and passive never build or consult the detector
        state = init_drift_state(prep.pretest_days, config.load_bandwidth)
    context = np.concatenate([d.readings for d in prep.pretest_days])[-config.input_len:]
    daily_errors: list[DailyError] = []
    decisions: list[DriftDecision] = []
    for index, day in enumerate(prep.test_days):
        daily_errors.append(_score_day(config, model, context, day))
        if active:
            decisions.append(decide(state, day, config.tau))
        if config.mode == "passive" or (active and decisions[-1].is_drift):
            event = len(hpo_events)
            model, hpo_duration, fit_duration, tuned, loss = _update_model(
                config, prep, model, index, event)
            costs += [CostEntry(day.day, "hpo", hpo_duration),
                      CostEntry(day.day, "adaptation", fit_duration)]
            hpo_events.append(HpoEventRecord(event=event, day_index=day.day, loss=loss,
                                             **asdict(tuned)))
        if active:
            state = advance(state, day, decisions[-1].divergence)
        context = np.concatenate([context, day.readings])[-config.input_len:]

    stats = summarize_daily(daily_errors)
    return EvaluationReport(
        mode=config.mode, tau=config.tau, series_sha256=prep.digest, seed=config.seed,
        split=prep.split_sizes(), daily_errors=tuple(daily_errors),
        mean_mape=stats["mean_mape"], std_mape=stats["std_mape"],
        mean_rmse=stats["mean_rmse"], std_rmse=stats["std_rmse"],
        drift_decisions=tuple(decisions), adaptation_count=len(hpo_events) - 1,
        price_rate=config.price_rate, cost_entries=tuple(costs), hpo_events=tuple(hpo_events))


def run_baseline(config: RunConfig, series: LoadSeries) -> EvaluationReport:
    """Train once, predict every test day, never adapt."""
    return run(replace(config, mode="baseline", tau=None), series)


def run_passive(config: RunConfig, series: LoadSeries) -> EvaluationReport:
    """Predict each day, then unconditionally adapt on that day's windows."""
    return run(replace(config, mode="passive", tau=None), series)


def run_active(config: RunConfig, series: LoadSeries) -> EvaluationReport:
    """Adapt only when the day's divergence is improbably large."""
    if config.mode != "active":
        raise ConfigError("run_active requires mode='active' and a tau value")
    return run(config, series)


# --- comparison ---------------------------------------------------------------


def compare(baseline: EvaluationReport, candidates: Sequence[EvaluationReport],
            ) -> dict:
    """Per-candidate improvement, cost and trade-off against one baseline."""
    for report in candidates:
        if report.series_sha256 != baseline.series_sha256:
            raise MismatchedRuns("candidate report comes from a different input series")
        if report.split != baseline.split:
            raise MismatchedRuns("candidate report uses a different split")

    rows = []
    for report in [baseline, *candidates]:
        imp_mape = improvement(report.mean_mape, baseline.mean_mape)
        imp_rmse = improvement(report.mean_rmse, baseline.mean_rmse)
        cost = report.total_cost
        if cost > 0:
            score = trade_off_score(imp_mape, cost)
        elif imp_mape == 0:
            score = 0.0  # no adaptations, no improvement: published convention
        else:
            score = None
        rows.append({
            "label": report.label,
            "mode": report.mode,
            "tau": report.tau,
            "mean_mape": report.mean_mape,
            "std_mape": report.std_mape,
            "mean_rmse": report.mean_rmse,
            "std_rmse": report.std_rmse,
            "improvement_mape": imp_mape,
            "improvement_rmse": imp_rmse,
            "adaptation_count": report.adaptation_count,
            "total_cost": cost,
            "trade_off_score": score,
        })
    return {"series_sha256": baseline.series_sha256, "split": dict(baseline.split),
            "rows": rows}


def render_comparison(comparison: dict) -> str:
    """Aligned text table of a compare() result."""
    headers = ["run", "mape", "std", "rmse", "std", "imp%", "adapts", "cost", "TS"]
    lines = []
    for row in comparison["rows"]:
        ts = row["trade_off_score"]
        lines.append([
            row["label"],
            f"{row['mean_mape']:.2f}", f"{row['std_mape']:.2f}",
            f"{row['mean_rmse']:.3f}", f"{row['std_rmse']:.3f}",
            f"{row['improvement_mape']:.2f}",
            str(row["adaptation_count"]),
            f"{row['total_cost']:.2f}",
            "-" if ts is None else f"{ts:.2f}",
        ])
    widths = [max(len(headers[i]), *(len(line[i]) for line in lines))
              for i in range(len(headers))]
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    return "\n".join([fmt(headers), fmt(["-" * w for w in widths]),
                      *[fmt(line) for line in lines]])
