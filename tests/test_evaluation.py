"""Metrics, cost arithmetic and report serialization."""
from datetime import date, timedelta

import numpy as np
import pytest

from driftcast.drift import DriftDecision
from driftcast.errors import (
    LengthMismatch,
    NegativeDuration,
    WrongCount,
    ZeroActual,
    ZeroBaseline,
    ZeroCost,
)
from driftcast.evaluation import (
    DEFAULT_PRICE_RATE,
    CostEntry,
    DailyError,
    EvaluationReport,
    HpoEventRecord,
    daily_error,
    improvement,
    mape,
    rmse,
    series_digest,
    summarize_daily,
    trade_off_score,
)

DAY = date(2024, 6, 1)


class TestMape:
    def test_worked_example_is_exact(self):
        assert mape([100.0, 100.0], [90.0, 110.0]) == 10.0

    def test_perfect_forecast(self):
        assert mape([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_zero_actual_rejected_by_default(self):
        with pytest.raises(ZeroActual):
            mape([1.0, 0.0], [1.0, 1.0])

    def test_zero_actual_excluded_when_allowed(self):
        value = mape([1.0, 0.0], [1.1, 1.0], exclude_zero_actuals=True)
        assert value == pytest.approx(10.0, abs=1e-9)

    def test_all_zero_actuals_still_rejected(self):
        with pytest.raises(ZeroActual):
            mape([0.0, 0.0], [1.0, 1.0], exclude_zero_actuals=True)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(1, 5, 20)
        f = rng.uniform(1, 5, 20)
        assert mape(3.7 * a, 3.7 * f) == pytest.approx(mape(a, f), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mape([1.0], [1.0, 2.0])


class TestRmse:
    def test_unit_example(self):
        assert rmse([1.0, 1.0], [0.0, 2.0]) == 1.0

    def test_single_element(self):
        assert rmse([3.0], [1.0]) == 2.0

    def test_perfect_forecast(self):
        assert rmse([5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(1, 5, 20)
        f = rng.uniform(1, 5, 20)
        assert rmse(2.5 * a, 2.5 * f) == pytest.approx(2.5 * rmse(a, f), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0, 2.0], [1.0])


class TestDailyError:
    def _pairs(self, hourly_mapes):
        pairs = []
        for target in hourly_mapes:
            actual = np.full(6, 100.0)
            forecast = np.full(6, 100.0 * (1 - target / 100.0))
            pairs.append((actual, forecast))
        return pairs

    def test_mean_of_constant_hourly_errors(self):
        entry = daily_error(DAY, self._pairs([5.0] * 24))
        assert entry.mape == pytest.approx(5.0, abs=1e-9)

    def test_wrong_count_rejected(self):
        with pytest.raises(WrongCount):
            daily_error(DAY, self._pairs([5.0] * 23))

    def test_alternating_hourly_errors_average(self):
        entry = daily_error(DAY, self._pairs([0.0, 10.0] * 12))
        assert entry.mape == pytest.approx(5.0, abs=1e-9)

    def test_rmse_is_averaged_too(self):
        pairs = [(np.full(6, 10.0), np.full(6, 9.0))] * 24
        entry = daily_error(DAY, pairs)
        assert entry.rmse == pytest.approx(1.0, abs=1e-12)


def _priced(entries=(), price_rate=DEFAULT_PRICE_RATE) -> EvaluationReport:
    """A report that carries only the given cost entries."""
    return EvaluationReport(mode="baseline", tau=None, series_sha256="", seed=0, split={},
                            daily_errors=(), mean_mape=0.0, std_mape=0.0, mean_rmse=0.0,
                            std_rmse=0.0, drift_decisions=(), adaptation_count=0,
                            price_rate=price_rate, cost_entries=tuple(entries))


class TestCosts:
    def test_passive_period_daily_mean_matches_published_rate(self):
        # 58 equal adaptation entries summing to 15.93 at the default rate:
        # the per-day mean must come out at 0.27.
        total_minutes = 15.93 / 0.027
        per_day_seconds = total_minutes * 60 / 58
        report = _priced([CostEntry(DAY + timedelta(days=i), "adaptation", per_day_seconds)
                          for i in range(58)], price_rate=0.027)
        assert report.total_cost == pytest.approx(15.93, abs=1e-9)
        assert report.total_cost / 58 == pytest.approx(0.27, abs=0.005)

    def test_no_entries_are_free(self):
        assert _priced().total_cost == 0.0

    def test_totals_are_additive(self):
        first = _priced([CostEntry(DAY, "adaptation", 120.0)], price_rate=0.05)
        second = _priced([CostEntry(DAY, "hpo", 60.0)], price_rate=0.05)
        merged = _priced(first.cost_entries + second.cost_entries, price_rate=0.05)
        assert merged.total_cost == pytest.approx(first.total_cost + second.total_cost,
                                                  rel=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(NegativeDuration):
            CostEntry(DAY, "adaptation", -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CostEntry(DAY, "tea_break", 60.0)


class TestImprovementAndTradeOff:
    def test_published_mape_row(self):
        assert improvement(2.95, 6.56) == pytest.approx(55.03, abs=0.01)

    def test_published_rmse_row(self):
        assert improvement(0.21, 0.45) == pytest.approx(53.33, abs=0.01)

    def test_no_change_is_zero(self):
        assert improvement(4.2, 4.2) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaseline):
            improvement(1.0, 0.0)

    def test_published_trade_off_cells(self):
        assert trade_off_score(64.03, 20.60) == pytest.approx(3.11, abs=0.005)
        assert trade_off_score(27.74, 7.53) == pytest.approx(3.68, abs=0.005)

    def test_zero_cost_rejected(self):
        with pytest.raises(ZeroCost):
            trade_off_score(10.0, 0.0)


class TestReport:
    def _report(self):
        errors = tuple(DailyError(DAY + timedelta(days=i), mape=5.0 + i, rmse=0.5)
                       for i in range(3))
        stats = summarize_daily(errors)
        costs = (CostEntry(DAY, "initial_training", 90.0),
                 CostEntry(DAY + timedelta(days=1), "hpo", 3.0),
                 CostEntry(DAY + timedelta(days=1), "adaptation", 6.0))
        return EvaluationReport(
            mode="active", tau=0.15, series_sha256="abc123", seed=7,
            split={"train_days": 10, "validation_days": 2, "test_days": 3},
            daily_errors=errors,
            drift_decisions=tuple(DriftDecision(e.day_index, divergence=0.2 * i,
                                                p_value=0.5 - 0.2 * i, is_drift=i == 2,
                                                tau=0.15)
                                  for i, e in enumerate(errors)),
            adaptation_count=1, price_rate=0.027, cost_entries=costs,
            hpo_events=(HpoEventRecord(event=0, day_index=None, learning_rate=0.01,
                                       dropout_rate=0.0, n_units=32, loss=4.2),
                        HpoEventRecord(event=1, day_index=DAY + timedelta(days=1),
                                       learning_rate=0.001, dropout_rate=0.2,
                                       n_units=32, loss=3.9)),
            **stats)

    def test_json_round_trip(self):
        report = self._report()
        again = EvaluationReport.from_json(report.to_json())
        assert again == report

    def test_schema_2_key_sets(self):
        # A field added to a record must come with a schema bump.
        data = self._report().to_dict()
        assert set(data) == {
            "schema_version", "mode", "tau", "series_sha256", "seed", "split",
            "daily_errors", "mean_mape", "std_mape", "mean_rmse", "std_rmse",
            "drift_decisions", "adaptation_count", "price_rate", "cost_entries",
            "total_cost", "hpo_events"}
        rows = {
            "daily_errors": {"day_index", "mape", "rmse"},
            "drift_decisions": {"day_index", "divergence", "p_value", "is_drift", "tau"},
            "cost_entries": {"day_index", "kind", "duration_seconds"},
            "hpo_events": {"event", "day_index", "learning_rate", "dropout_rate", "n_units",
                           "loss"},
        }
        for key, row_keys in rows.items():
            assert data[key] and all(set(row) == row_keys for row in data[key])

    def test_version_1_report_rejected(self):
        data = self._report().to_dict()
        assert "trade_off_score" not in data and "improvement_vs_baseline" not in data
        data.update(schema_version=1, improvement_vs_baseline=None, trade_off_score=None)
        with pytest.raises(ValueError, match="unsupported report schema 1"):
            EvaluationReport.from_dict(data)

    def test_serialization_is_stable(self):
        report = self._report()
        assert report.to_json() == report.to_json()

    def test_summary_statistics_consistent(self):
        report = self._report()
        mapes = [e.mape for e in report.daily_errors]
        assert report.mean_mape == pytest.approx(np.mean(mapes))
        assert report.std_mape == pytest.approx(np.std(mapes))


def test_series_digest_tracks_content():
    a = np.arange(100.0)
    b = np.arange(100.0)
    assert series_digest(a) == series_digest(b)
    b[3] += 1e-9
    assert series_digest(a) != series_digest(b)
