"""Error metrics, daily aggregation, cost ledger and trade-off score.

MAPE and RMSE are computed per hourly forecast (the 6 steps of the hour),
then averaged over the 24 hours of a day; per-run means and standard
deviations aggregate the daily figures. Adaptation cost is duration times
a configurable price rate per minute, and the trade-off score divides the
percentage error improvement by the total cost.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from datetime import date
from typing import Optional, Sequence

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

DEFAULT_EPSILON_ZERO = 1e-6

# Documented-as-arbitrary default: currency units per minute of adaptation.
DEFAULT_PRICE_RATE = 0.027

REPORT_SCHEMA_VERSION = 2

COST_KINDS = ("initial_training", "adaptation", "hpo")


def near_zero_actuals(actual, epsilon_zero: float = DEFAULT_EPSILON_ZERO) -> np.ndarray:
    """Mask of the actual values too close to zero for a percentage error."""
    return np.abs(np.asarray(actual, dtype=float)) <= epsilon_zero


def mape(actual, forecast, epsilon_zero: float = DEFAULT_EPSILON_ZERO,
         exclude_zero_actuals: bool = False) -> float:
    """Mean absolute percentage error: (1/n) sum |A - F| / |A| * 100."""
    a = np.asarray(actual, dtype=float).ravel()
    f = np.asarray(forecast, dtype=float).ravel()
    if a.size != f.size:
        raise LengthMismatch(f"actual has {a.size} values, forecast {f.size}")
    if a.size == 0:
        raise LengthMismatch("cannot score empty vectors")
    near_zero = near_zero_actuals(a, epsilon_zero)
    if near_zero.any():
        if not exclude_zero_actuals:
            raise ZeroActual(f"{int(near_zero.sum())} actual value(s) within "
                             f"{epsilon_zero} of zero")
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
                epsilon_zero: float = DEFAULT_EPSILON_ZERO,
                exclude_zero_actuals: bool = False) -> DailyError:
    """Average the 24 hourly error figures into one daily number each."""
    if len(hourly_pairs) != 24:
        raise WrongCount(f"expected 24 hourly pairs, got {len(hourly_pairs)}")
    mapes = [mape(a, f, epsilon_zero, exclude_zero_actuals) for a, f in hourly_pairs]
    rmses = [rmse(a, f) for a, f in hourly_pairs]
    return DailyError(day_index=day_index, mape=float(np.mean(mapes)),
                      rmse=float(np.mean(rmses)))


# --- cost ledger ------------------------------------------------------------

@dataclass(frozen=True)
class CostEntry:
    day_index: date
    kind: str
    duration: float  # seconds

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.duration < 0:
            raise NegativeDuration(f"duration {self.duration} is negative")


@dataclass(frozen=True)
class CostLedger:
    price_rate: float = DEFAULT_PRICE_RATE  # currency per minute
    entries: tuple[CostEntry, ...] = ()

    @property
    def total(self) -> float:
        return sum((entry.duration / 60.0) * self.price_rate for entry in self.entries)

    def count(self, kind: str) -> int:
        return sum(1 for entry in self.entries if entry.kind == kind)


def record_cost(ledger: CostLedger, day: date, kind: str, duration: float,
                ) -> CostLedger:
    """Append one priced event; durations are seconds, never negative."""
    entry = CostEntry(day_index=day, kind=kind, duration=duration)
    return replace(ledger, entries=ledger.entries + (entry,))


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
    ledger: CostLedger
    hpo_events: tuple[HpoEventRecord, ...] = ()

    @property
    def total_cost(self) -> float:
        return self.ledger.total

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "mode": self.mode,
            "tau": self.tau,
            "series_sha256": self.series_sha256,
            "seed": self.seed,
            "split": dict(self.split),
            "daily_errors": [
                {"day_index": e.day_index.isoformat(), "mape": e.mape, "rmse": e.rmse}
                for e in self.daily_errors
            ],
            "mean_mape": self.mean_mape,
            "std_mape": self.std_mape,
            "mean_rmse": self.mean_rmse,
            "std_rmse": self.std_rmse,
            "drift_decisions": [
                {
                    "day_index": d.day_index.isoformat(),
                    "divergence": d.divergence,
                    "p_value": d.p_value,
                    "is_drift": d.is_drift,
                    "tau": d.tau,
                }
                for d in self.drift_decisions
            ],
            "adaptation_count": self.adaptation_count,
            "price_rate": self.ledger.price_rate,
            "cost_entries": [
                {"day_index": c.day_index.isoformat(), "kind": c.kind,
                 "duration_seconds": c.duration}
                for c in self.ledger.entries
            ],
            "total_cost": self.total_cost,
            "hpo_events": [
                {
                    "event": h.event,
                    "day_index": h.day_index.isoformat() if h.day_index else None,
                    "learning_rate": h.learning_rate,
                    "dropout_rate": h.dropout_rate,
                    "n_units": h.n_units,
                    "loss": h.loss,
                }
                for h in self.hpo_events
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationReport":
        if data.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema {data.get('schema_version')}")
        ledger = CostLedger(
            price_rate=data["price_rate"],
            entries=tuple(CostEntry(day_index=date.fromisoformat(c["day_index"]),
                                    kind=c["kind"], duration=c["duration_seconds"])
                          for c in data["cost_entries"]))
        return cls(
            mode=data["mode"],
            tau=data["tau"],
            series_sha256=data["series_sha256"],
            seed=data["seed"],
            split=dict(data["split"]),
            daily_errors=tuple(DailyError(day_index=date.fromisoformat(e["day_index"]),
                                          mape=e["mape"], rmse=e["rmse"])
                               for e in data["daily_errors"]),
            mean_mape=data["mean_mape"],
            std_mape=data["std_mape"],
            mean_rmse=data["mean_rmse"],
            std_rmse=data["std_rmse"],
            drift_decisions=tuple(
                DriftDecision(day_index=date.fromisoformat(d["day_index"]),
                              divergence=d["divergence"], p_value=d["p_value"],
                              is_drift=d["is_drift"], tau=d["tau"])
                for d in data["drift_decisions"]),
            adaptation_count=data["adaptation_count"],
            ledger=ledger,
            hpo_events=tuple(
                HpoEventRecord(event=h["event"],
                               day_index=(date.fromisoformat(h["day_index"])
                                          if h["day_index"] else None),
                               learning_rate=h["learning_rate"],
                               dropout_rate=h["dropout_rate"],
                               n_units=h["n_units"], loss=h["loss"])
                for h in data["hpo_events"]),
        )

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
