"""Error metrics, daily aggregation, cost entries and trade-off score.

MAPE and RMSE are computed per hourly forecast (the readings of the hour),
then averaged over the 24 hours of a day; per-run means and standard
deviations aggregate the daily figures. Adaptation cost is duration times
a configurable price rate per minute, and the trade-off score divides the
percentage error improvement by the total cost.
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from numbers import Integral, Real
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .drift import DriftDecision
from .errors import (
    LengthMismatch,
    NegativeDuration,
    WrongCount,
    ZeroActual,
    ZeroBaseline,
    ZeroCost,
)

EPSILON_ZERO = 1e-6

# Documented-as-arbitrary default: currency units per minute of adaptation.
DEFAULT_PRICE_RATE = 0.027

REPORT_SCHEMA_VERSION = 2

COST_KINDS = ("initial_training", "adaptation", "hpo")


def near_zero_actuals(actual) -> np.ndarray:
    """Mask of the actual values too close to zero for a percentage error."""
    return np.abs(np.asarray(actual, dtype=float)) <= EPSILON_ZERO


def mape(actual, forecast, exclude_zero_actuals: bool = False) -> float:
    """Mean absolute percentage error: (1/n) sum |A - F| / |A| * 100."""
    a = np.asarray(actual, dtype=float).ravel()
    f = np.asarray(forecast, dtype=float).ravel()
    if a.size != f.size:
        raise LengthMismatch(f"actual has {a.size} values, forecast {f.size}")
    if a.size == 0:
        raise LengthMismatch("cannot score empty vectors")
    near_zero = near_zero_actuals(a)
    if near_zero.any():
        if not exclude_zero_actuals:
            raise ZeroActual(f"{int(near_zero.sum())} actual value(s) within "
                             f"{EPSILON_ZERO} of zero")
        a, f = a[~near_zero], f[~near_zero]
        if a.size == 0:
            raise ZeroActual("every actual value is (numerically) zero")
    return float(np.mean(np.abs(a - f) / np.abs(a)) * 100.0)


def rmse(actual, forecast) -> float:
    """Root mean squared error in the data's units (kWh here)."""
    a = np.asarray(actual, dtype=float).ravel()
    f = np.asarray(forecast, dtype=float).ravel()
    if a.size != f.size:
        raise LengthMismatch(f"actual has {a.size} values, forecast {f.size}")
    if a.size == 0:
        raise LengthMismatch("cannot score empty vectors")
    diff = a - f
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass(frozen=True)
class DailyError:
    day_index: date
    mape: float
    rmse: float


def daily_error(day_index: date, hourly_pairs: Sequence[tuple],
                exclude_zero_actuals: bool = False) -> DailyError:
    """Average the 24 hourly error figures into one daily number each."""
    if len(hourly_pairs) != 24:
        raise WrongCount(f"expected 24 hourly pairs, got {len(hourly_pairs)}")
    mapes = [mape(a, f, exclude_zero_actuals) for a, f in hourly_pairs]
    rmses = [rmse(a, f) for a, f in hourly_pairs]
    return DailyError(day_index=day_index, mape=float(np.mean(mapes)),
                      rmse=float(np.mean(rmses)))


# --- costs --------------------------------------------------------------------

@dataclass(frozen=True)
class CostEntry:
    day_index: date
    kind: str
    duration_seconds: float

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if not self.duration_seconds >= 0:  # NaN too
            raise NegativeDuration(f"duration {self.duration_seconds} must be >= 0")


# --- comparison metrics -------------------------------------------------------

def improvement(candidate_mean_error: float, baseline_mean_error: float) -> float:
    """Percent error reduction relative to the baseline."""
    if baseline_mean_error <= 0:
        raise ZeroBaseline(f"baseline error must be > 0, got {baseline_mean_error}")
    return 100.0 * (baseline_mean_error - candidate_mean_error) / baseline_mean_error


def trade_off_score(improvement_percent: float, total_cost: float) -> float:
    """Performance per unit cost; higher favors the candidate."""
    if total_cost <= 0:
        raise ZeroCost(f"total cost must be > 0, got {total_cost}")
    return improvement_percent / total_cost


# --- run report ----------------------------------------------------------------

def _plain(value):
    """A report value as JSON data: a record becomes a dict, a date its ISO
    text, a tuple a list."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


# The values each plain annotation admits; a bool, though an int, is no number.
_ADMITS = {bool: bool, int: Integral, float: Real, str: str, dict: dict, tuple: (list, tuple)}


def _typed(kind, value, name: str):
    """The inverse of _plain for field `name`, annotated `kind`; a TypeError unless
    `kind` admits the value: None only under Optional, a record as its dict or
    itself, a date as its ISO text, a tuple element by element, others by _ADMITS."""
    if get_origin(kind) is Union:  # Optional[x]
        if value is None:
            return None
        kind = get_args(kind)[0]
    if is_dataclass(kind):
        return value if isinstance(value, kind) else _record(kind, value)
    if kind is date:
        return date.fromisoformat(value)
    base = get_origin(kind) or kind
    if isinstance(value, bool) is not (base is bool) or not isinstance(value, _ADMITS[base]):
        raise TypeError(f"{name} must be {base.__name__}, got {value!r}")
    return tuple(_typed(get_args(kind)[0], v, name) for v in value) if base is tuple else value


# get_type_hints evaluates the annotation strings; once per record class will do.
_field_types = functools.cache(get_type_hints)


def _record(cls, data: dict):
    """An instance of the record class `cls` from its _plain dict; absent fields take defaults."""
    if not isinstance(data, dict):
        raise TypeError(f"a {cls.__name__} is a JSON object, not {type(data).__name__}")
    hints = _field_types(cls)
    if set(data) - set(hints):
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(set(data) - set(hints))}")
    return cls(**{name: _typed(hints[name], value, name) for name, value in data.items()})


@dataclass(frozen=True)
class HpoEventRecord:
    """Chosen hyperparameters and loss for one tuning event."""

    event: int
    day_index: Optional[date]
    learning_rate: float
    dropout_rate: float
    n_units: int
    loss: float


@dataclass(frozen=True)
class EvaluationReport:
    mode: str  # baseline | passive | active
    tau: Optional[float]
    series_sha256: str
    seed: int
    split: dict
    daily_errors: tuple[DailyError, ...]
    mean_mape: float
    std_mape: float
    mean_rmse: float
    std_rmse: float
    drift_decisions: tuple[DriftDecision, ...]
    adaptation_count: int
    price_rate: float  # currency per minute
    cost_entries: tuple[CostEntry, ...]
    hpo_events: tuple[HpoEventRecord, ...] = ()

    @property
    def label(self) -> str:
        return self.mode if self.tau is None else f"{self.mode}(tau={self.tau:g})"

    @property
    def total_cost(self) -> float:
        return sum((entry.duration_seconds / 60.0) * self.price_rate
                   for entry in self.cost_entries)

    def to_dict(self) -> dict:
        return {**_plain(self), "schema_version": REPORT_SCHEMA_VERSION,
                "total_cost": self.total_cost}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationReport":
        if not isinstance(data, dict):
            raise ValueError(f"a report is a JSON object, not {type(data).__name__}")
        if data.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema {data.get('schema_version')}")
        derived = ("schema_version", "total_cost")  # to_dict's, not fields
        return _record(cls, {key: value for key, value in data.items() if key not in derived})

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        return cls.from_dict(json.loads(text))


def summarize_daily(daily_errors: Sequence[DailyError]) -> dict[str, float]:
    mapes = np.array([e.mape for e in daily_errors])
    rmses = np.array([e.rmse for e in daily_errors])
    return {
        "mean_mape": float(mapes.mean()),
        "std_mape": float(mapes.std()),
        "mean_rmse": float(rmses.mean()),
        "std_rmse": float(rmses.std()),
    }


def series_digest(values) -> str:
    """Stable content hash used to pair reports with their input stream."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()
