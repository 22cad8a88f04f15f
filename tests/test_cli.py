"""CLI subcommands, config handling and exit codes."""
import json
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from driftcast.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, main
from driftcast.evaluation import CostEntry, DailyError, EvaluationReport
from driftcast.ingest import parse_load_csv

RUN_CONFIG = {
    "load_bandwidth": 1.0,
    "hpo_initial_budget": 1,
    "hpo_adapt_budget": 1,
    "hpo_fit_epochs": 1,
    "epochs_initial": 3,
    "epochs_incremental": 1,
    "patience": 2,
    "deterministic_timing": True,
    "learning_rates": [0.01],
    "dropout_rates": [0.0],
    "n_units_values": [6],
}

PROFILE = {
    "base": 10.0,
    "peaks": [[9.0, 2.0, 4.0]],
    "noise_sd": 0.4,
    "events": [{"day": 10, "kind": "mean_shift", "magnitude": 5.0}],
}


@pytest.fixture
def workspace(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    return tmp_path


def _synth(workspace, out="series.csv", days=12, seed=3):
    path = workspace / out
    code = main(["synth", "--profile", str(workspace / "profile.json"),
                 "--seed", str(seed), "--days", str(days), "--out", str(path)])
    assert code == EXIT_OK
    return path


class TestSynthAndIngest:
    def test_synth_writes_parseable_canonical_csv(self, workspace):
        path = _synth(workspace)
        series = parse_load_csv(path)
        assert len(series) == 12 * 144
        assert series.is_gapless

    def test_ingest_round_trip_with_report(self, workspace, capsys):
        path = _synth(workspace)
        out = workspace / "canonical.csv"
        report_path = workspace / "segmentation.json"
        code = main(["ingest", str(path), "--out", str(out),
                     "--report", str(report_path)])
        assert code == EXIT_OK
        segmentation = json.loads(report_path.read_text())
        assert segmentation["complete_days"] == 12
        assert segmentation["resolution_minutes"] == 60 / 6

    @pytest.mark.parametrize("gappy", [False, True])
    def test_ingest_negative_max_gap_is_config_error(self, workspace, capsys, gappy):
        path = _synth(workspace)
        if gappy:
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:100] + lines[101:]))
        out = workspace / "canonical.csv"
        code = main(["ingest", str(path), "--out", str(out), "--max-gap", "-1"])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: max_gap must be >= 0")

    def test_ingest_missing_file_is_input_error(self, workspace):
        code = main(["ingest", str(workspace / "nope.csv"),
                     "--out", str(workspace / "out.csv")])
        assert code == EXIT_INPUT

    def test_synth_event_outside_range_is_input_error(self, workspace):
        bad_profile = workspace / "bad.json"
        bad_profile.write_text(json.dumps({**PROFILE,
                                           "events": [{"day": 99, "kind": "mean_shift",
                                                       "magnitude": 1.0}]}))
        code = main(["synth", "--profile", str(bad_profile), "--seed", "1",
                     "--days", "10", "--out", str(workspace / "s.csv")])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("minutes", [7, 0, -10])
    def test_synth_resolution_not_dividing_a_day_is_config_error(self, workspace, minutes):
        bad_profile = workspace / "bad.json"
        bad_profile.write_text(json.dumps({**PROFILE, "resolution_minutes": minutes}))
        out = workspace / "s.csv"
        code = main(["synth", "--profile", str(bad_profile), "--seed", "1",
                     "--days", "10", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("noise_sd,expected", [
        (-1.0, EXIT_CONFIG), (float("nan"), EXIT_CONFIG), (0.0, EXIT_OK)])
    def test_synth_noise_must_not_be_negative(self, workspace, noise_sd, expected):
        profile = workspace / "noise.json"
        profile.write_text(json.dumps({**PROFILE, "noise_sd": noise_sd}))
        out = workspace / "s.csv"
        code = main(["synth", "--profile", str(profile), "--seed", "1",
                     "--days", "10", "--out", str(out)])
        assert code == expected
        assert out.exists() == (expected == EXIT_OK)

    @pytest.mark.parametrize("day,expected", [(10.5, EXIT_INPUT), (True, EXIT_INPUT),
                                              (10.0, EXIT_OK), (10, EXIT_OK)])
    def test_synth_event_day_must_be_a_whole_number(self, workspace, day, expected):
        profile = workspace / "event.json"
        profile.write_text(json.dumps({**PROFILE, "events": [
            {"day": day, "kind": "mean_shift", "magnitude": 5.0}]}))
        out = workspace / "s.csv"
        code = main(["synth", "--profile", str(profile), "--seed", "1",
                     "--days", "12", "--out", str(out)])
        assert code == expected
        assert out.exists() == (expected == EXIT_OK)

    @pytest.mark.parametrize("days", [0, -3])
    def test_synth_fewer_than_one_day_is_config_error(self, workspace, days):
        out = workspace / "s.csv"
        code = main(["synth", "--profile", str(workspace / "profile.json"), "--seed", "1",
                     "--days", str(days), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"events": [{"day": 10, "kind": "mean_shift", "magnitude": "x"}]},
        {"base": [1]},
        {"events": [{"day": "5", "kind": "mean_shift", "magnitude": 1.0}]},
        {"base": float("nan")},
        {"events": [{"day": 5, "kind": "mean_shift", "magnitude": float("nan")}]},
    ])
    def test_synth_non_numeric_profile_value_is_config_error(self, workspace, override):
        bad_profile = workspace / "bad.json"
        bad_profile.write_text(json.dumps({**PROFILE, **override}))
        out = workspace / "s.csv"
        code = main(["synth", "--profile", str(bad_profile), "--seed", "1",
                     "--days", "10", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        [], None, "x", 3,
        {**PROFILE, "noise": 3.0},
        {**PROFILE, "events": [{"day": 10, "kind": "mean_shift", "mag": 5.0}]},
        {**PROFILE, "events": [{"day": 10, "kind": "mean_shift", "magnitude": 5.0, "mag": 1.0}]},
        {**PROFILE, "events": [[10, "mean_shift", 5.0]]},
    ], ids=["list", "null", "string", "number", "unknown_key", "renamed_event_key",
            "extra_event_key", "event_not_an_object"])
    def test_synth_profile_of_the_wrong_shape_is_config_error(self, workspace, capsys, spec):
        bad_profile = workspace / "bad.json"
        bad_profile.write_text(json.dumps(spec))
        out = workspace / "s.csv"
        code = main(["synth", "--profile", str(bad_profile), "--seed", "1",
                     "--days", "12", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")


class TestRun:
    def test_baseline_run_writes_valid_report(self, workspace):
        series = _synth(workspace)
        out = workspace / "report.json"
        code = main(["run", "--mode", "baseline", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(out)])
        assert code == EXIT_OK
        report = EvaluationReport.from_json(out.read_text())
        assert report.mode == "baseline"
        assert report.adaptation_count == 0

    def test_identical_invocations_are_byte_identical(self, workspace):
        series = _synth(workspace)
        first = workspace / "first.json"
        second = workspace / "second.json"
        args = ["run", "--mode", "passive", "--config",
                str(workspace / "config.json"), "--input", str(series), "--seed", "5"]
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_active_without_tau_is_config_error(self, workspace):
        series = _synth(workspace)
        code = main(["run", "--mode", "active", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(workspace / "r.json")])
        assert code == EXIT_CONFIG

    def test_unknown_config_key_is_config_error(self, workspace):
        series = _synth(workspace)
        bad = workspace / "bad_config.json"
        bad.write_text(json.dumps({**RUN_CONFIG, "bogus_option": 1}))
        code = main(["run", "--mode", "baseline", "--config", str(bad),
                     "--input", str(series), "--out", str(workspace / "r.json")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_setting_accepts_true_and_false(self, workspace, value):
        from driftcast.pipeline import RunConfig, prepare_run

        series = _synth(workspace)
        config = workspace / "bool_config.json"
        config.write_text(json.dumps({**RUN_CONFIG, "deterministic_timing": value}))
        out = workspace / "r.json"
        code = main(["run", "--mode", "baseline", "--config", str(config),
                     "--input", str(series), "--out", str(out)])
        assert code == EXIT_OK
        windows = len(prepare_run(RunConfig.from_dict(RUN_CONFIG),
                                  parse_load_csv(series)).train_windows)
        charged = EvaluationReport.from_json(out.read_text()).cost_entries[0].duration_seconds
        # Deterministic timing charges 1e-3 s per epoch and window of the one trial.
        assert (charged == 1e-3 * RUN_CONFIG["epochs_initial"] * windows) == value

    def test_too_few_days_is_input_error(self, workspace):
        quiet_profile = workspace / "quiet.json"
        quiet_profile.write_text(json.dumps({**PROFILE, "events": []}))
        series = workspace / "short.csv"
        assert main(["synth", "--profile", str(quiet_profile), "--seed", "3",
                     "--days", "4", "--out", str(series)]) == EXIT_OK
        code = main(["run", "--mode", "baseline", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(workspace / "r.json")])
        assert code == EXIT_INPUT

    def test_resolution_not_dividing_a_day_is_input_error(self, workspace, monkeypatch):
        from driftcast import pipeline

        searched = []
        monkeypatch.setattr(pipeline, "optimize",
                            lambda *args, **kwargs: searched.append(args))
        series = workspace / "seven.csv"
        start = datetime(2024, 1, 1)
        series.write_text("timestamp,consumption_kwh\n" + "".join(
            f"{(start + k * timedelta(minutes=7)).isoformat()},1.0\n" for k in range(900)))
        out, report = workspace / "canonical.csv", workspace / "segmentation.json"
        code = main(["ingest", str(series), "--out", str(out), "--report", str(report)])
        assert code == EXIT_INPUT
        assert not out.exists() and not report.exists()
        code = main(["run", "--mode", "baseline", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(workspace / "r.json")])
        assert code == EXIT_INPUT
        assert searched == []

    def test_zero_consumption_is_runtime_failure(self, workspace):
        zero_profile = workspace / "zero.json"
        zero_profile.write_text(json.dumps({"base": 0.0, "peaks": [],
                                            "noise_sd": 0.0}))
        series = workspace / "zeros.csv"
        assert main(["synth", "--profile", str(zero_profile), "--seed", "1",
                     "--days", "12", "--out", str(series)]) == EXIT_OK
        code = main(["run", "--mode", "baseline", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(workspace / "r.json")])
        assert code == EXIT_RUNTIME

    def test_quarter_hour_data_forecasts_four_readings_an_hour(self, workspace):
        from driftcast.pipeline import RunConfig, prepare_run

        quarter = workspace / "quarter.json"
        quarter.write_text(json.dumps({**PROFILE, "resolution_minutes": 15}))
        series = workspace / "quarter.csv"
        assert main(["synth", "--profile", str(quarter), "--seed", "3",
                     "--days", "12", "--out", str(series)]) == EXIT_OK
        code = main(["run", "--mode", "passive", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(workspace / "r.json")])
        assert code == EXIT_OK
        assert prepare_run(RunConfig.from_dict(RUN_CONFIG), parse_load_csv(series)).horizon == 4

    def test_readings_per_day_not_dividing_into_hours_fail_before_search(
            self, workspace, monkeypatch):
        # A 45-minute stream has 32 readings a day: no whole number per hour.
        from driftcast import pipeline

        searched = []
        monkeypatch.setattr(pipeline, "optimize",
                            lambda *args, **kwargs: searched.append(args))
        profile = workspace / "three_quarter.json"
        profile.write_text(json.dumps({**PROFILE, "resolution_minutes": 45}))
        series = workspace / "three_quarter.csv"
        assert main(["synth", "--profile", str(profile), "--seed", "3",
                     "--days", "12", "--out", str(series)]) == EXIT_OK
        code = main(["run", "--mode", "passive", "--config",
                     str(workspace / "config.json"), "--input", str(series),
                     "--out", str(workspace / "r.json")])
        assert code == EXIT_CONFIG
        assert searched == []

    @pytest.mark.parametrize("override", [
        {"learning_rates": [0.01, -1.0]},
        {"learning_rates": [0.0]},
        {"dropout_rates": []},
        {"dropout_rates": [1.0]},
        {"dropout_rates": [-0.1]},
        {"n_units_values": [0]},
        {"n_units_values": [6.5]},
        {"epochs_initial": "5"},
        {"batch_size": True},
        {"load_bandwidth": "wide"},
        {"learning_rates": ["0.01"]},
        {"grid_points": 8},
        {"input_len": 0},
        {"timing_coefficient": -1},
        {"timing_coefficient": float("nan")},
        {"load_bandwidth": float("nan")},
        {"price_rate": float("nan")},
        {"timing_coefficient": float("inf")},
        {"load_bandwidth": float("inf")},
        {"price_rate": float("inf")},
        {"patience": -1},
        {"max_gap": -1},
        {"split": {"train_fraction": 1.5}},
        {"split": {"validation_fraction_of_train": 0.0}},
        {"split": []},
        {"split": {"train_fraction": 0.01}},
        {"split": {"train_fraction": 0.2}},
        {"split": {"validation_fraction_of_train": 0.05}},
        {"deterministic_timing": "false"},
        {"deterministic_timing": "no"},
        {"deterministic_timing": 0},
        {"exclude_zero_actuals": "no"},
        {"retune_units_full_retrain": 0},
        {"horizon": 6},
        {"use_rank_fallback": False},
        {"epsilon_zero": 1e-6},
        {"learning_rates": [float("nan")]},
        {"learning_rates": [float("inf")]},
    ])
    def test_bad_search_space_or_numeric_value_fails_before_search(
            self, workspace, monkeypatch, override):
        from driftcast import pipeline

        searched = []
        monkeypatch.setattr(pipeline, "optimize",
                            lambda *args, **kwargs: searched.append(args))
        series = _synth(workspace)
        bad = workspace / "bad_config.json"
        bad.write_text(json.dumps({**RUN_CONFIG, **override}))
        code = main(["run", "--mode", "baseline", "--config", str(bad),
                     "--input", str(series), "--out", str(workspace / "r.json")])
        assert code == EXIT_CONFIG
        assert searched == []

    @pytest.mark.parametrize("days,mode", [
        (12, "baseline"), (12, "passive"), (12, "active"), (26, "passive"), (26, "active")])
    def test_input_len_that_leaves_no_window_fails_before_search(self, workspace, monkeypatch,
                                                                 days, mode):
        # 140 + 6 readings exceed the one validation day of 12 days, and the one day
        # an adaptation trains on.
        from driftcast import pipeline

        searched = []
        monkeypatch.setattr(pipeline, "optimize",
                            lambda *args, **kwargs: searched.append(args))
        series = _synth(workspace, days=days)
        wide = workspace / "wide_config.json"
        wide.write_text(json.dumps({**RUN_CONFIG, "input_len": 140}))
        code = main(["run", "--mode", mode, "--config", str(wide), "--input", str(series),
                     "--out", str(workspace / "r.json"),
                     *(["--tau", "1"] if mode == "active" else [])])
        assert code == EXIT_CONFIG
        assert searched == []

    @pytest.mark.parametrize("at", [5, 20_000])  # in the header, or past the first 8 KB
    def test_csv_that_is_not_utf8_is_input_error(self, workspace, capsys, at):
        data = _synth(workspace).read_bytes()
        assert len(data) > 20_000
        bad = workspace / "latin1.csv"
        bad.write_bytes(data[:at] + b"\xe9" + data[at:])
        out = workspace / "out"
        assert main(["ingest", str(bad), "--out", str(out)]) == EXIT_INPUT
        assert main(["run", "--mode", "baseline", "--config", str(workspace / "config.json"),
                     "--input", str(bad), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.count("not UTF-8 text") == 2
        assert not out.exists()

    def test_json_that_is_not_utf8_is_config_error(self, workspace):
        series = _synth(workspace)
        bad = workspace / "latin1.json"
        bad.write_bytes(b'{"seed": 1, "note": "caf\xe9"}')
        out = workspace / "out"
        assert main(["run", "--mode", "baseline", "--config", str(bad), "--input", str(series),
                     "--out", str(out)]) == EXIT_CONFIG
        assert main(["synth", "--profile", str(bad), "--seed", "1", "--days", "3",
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("config", [[], None, "x"])
    def test_config_that_is_not_an_object_is_config_error(self, workspace, monkeypatch, config):
        from driftcast import pipeline

        searched = []
        monkeypatch.setattr(pipeline, "optimize",
                            lambda *args, **kwargs: searched.append(args))
        series = _synth(workspace)
        bad = workspace / "bad_config.json"
        bad.write_text(json.dumps(config))
        code = main(["run", "--mode", "baseline", "--config", str(bad),
                     "--input", str(series), "--out", str(workspace / "r.json")])
        assert code == EXIT_CONFIG
        assert searched == []


def _small_report(**changes) -> dict:
    """A valid one-day report as JSON data, with top-level `changes`."""
    day = date(2024, 1, 1)
    report = EvaluationReport(
        mode="baseline", tau=None, series_sha256="0" * 64, seed=0, split={},
        daily_errors=(DailyError(day, 1.0, 0.5),), mean_mape=1.0, std_mape=0.0,
        mean_rmse=0.5, std_rmse=0.0, drift_decisions=(), adaptation_count=0,
        price_rate=0.027, cost_entries=(CostEntry(day, "initial_training", 1.0),))
    return {**report.to_dict(), **changes}


_GARBAGE_REPORTS = {
    "not-json": "{not json",
    "list": "[]",
    "string": '"text"',
    "daily-errors-int": json.dumps(_small_report(daily_errors=5)),
    "day-index-int": json.dumps(_small_report(
        daily_errors=[{"day_index": 5, "mape": 1.0, "rmse": 0.5}])),
    "negative-duration": json.dumps(_small_report(cost_entries=[
        {"day_index": "2024-01-01", "kind": "initial_training", "duration_seconds": -1.0}])),
    "nan-duration": json.dumps(_small_report(cost_entries=[{
        "day_index": "2024-01-01", "kind": "initial_training", "duration_seconds": float("nan")}])),
    "mean-mape-text": json.dumps(_small_report(mean_mape="x")),
    "price-rate-text": json.dumps(_small_report(price_rate="x")),
    "tau-text": json.dumps(_small_report(tau="0.1")),
    "mode-int": json.dumps(_small_report(mode=5)),
    "seed-text": json.dumps(_small_report(seed="0")),
    "adaptation-count-float": json.dumps(_small_report(adaptation_count=1.5)),
    "daily-mape-text": json.dumps(_small_report(
        daily_errors=[{"day_index": "2024-01-01", "mape": "x", "rmse": 0.5}])),
    "unknown-key": json.dumps(_small_report(note="hand-edited")),
}


class TestCompareAndReport:
    def _two_reports(self, workspace):
        series = _synth(workspace)
        base_out = workspace / "base.json"
        passive_out = workspace / "passive.json"
        common = ["--config", str(workspace / "config.json"),
                  "--input", str(series)]
        assert main(["run", "--mode", "baseline", *common,
                     "--out", str(base_out)]) == EXIT_OK
        assert main(["run", "--mode", "passive", *common,
                     "--out", str(passive_out)]) == EXIT_OK
        return base_out, passive_out

    def test_compare_writes_table(self, workspace, capsys):
        base_out, passive_out = self._two_reports(workspace)
        table = workspace / "table.json"
        code = main(["compare", "--baseline", str(base_out),
                     "--candidate", str(passive_out), "--out", str(table)])
        assert code == EXIT_OK
        rows = json.loads(table.read_text())["rows"]
        assert [row["mode"] for row in rows] == ["baseline", "passive"]
        printed = capsys.readouterr().out
        assert "passive" in printed

    def test_compare_rejects_mismatched_inputs(self, workspace):
        base_out, _ = self._two_reports(workspace)
        other_series = _synth(workspace, out="other.csv", seed=9)
        other_out = workspace / "other.json"
        assert main(["run", "--mode", "baseline", "--config",
                     str(workspace / "config.json"), "--input", str(other_series),
                     "--out", str(other_out)]) == EXIT_OK
        code = main(["compare", "--baseline", str(base_out),
                     "--candidate", str(other_out)])
        assert code == EXIT_INPUT

    def test_report_text_and_csv(self, workspace, capsys):
        base_out, _ = self._two_reports(workspace)
        assert main(["report", "--in", str(base_out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "mean MAPE" in text
        assert main(["report", "--in", str(base_out), "--format", "csv"]) == EXIT_OK
        csv_text = capsys.readouterr().out
        assert csv_text.startswith("day_index,mape,rmse")
        assert len(csv_text.strip().splitlines()) == 4  # header + 3 test days

    @pytest.mark.parametrize("garbage_text", _GARBAGE_REPORTS.values(), ids=_GARBAGE_REPORTS)
    def test_report_on_garbage_is_input_error(self, workspace, capsys, garbage_text):
        garbage = workspace / "garbage.json"
        garbage.write_text(garbage_text)
        assert main(["report", "--in", str(garbage)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{garbage} is not a valid report" in err
        assert "line 0" not in err

    @pytest.mark.parametrize("garbage_text", _GARBAGE_REPORTS.values(), ids=_GARBAGE_REPORTS)
    def test_compare_with_a_garbage_candidate_is_input_error(self, workspace, capsys,
                                                             garbage_text):
        base_out = workspace / "base.json"
        base_out.write_text(json.dumps(_small_report()))
        garbage = workspace / "garbage.json"
        garbage.write_text(garbage_text)
        assert main(["compare", "--baseline", str(base_out),
                     "--candidate", str(garbage)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{garbage} is not a valid report" in err
        assert "line 0" not in err
