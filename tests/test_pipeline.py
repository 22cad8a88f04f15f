"""End-to-end run behavior: equivalences, bookkeeping, determinism, compare."""
import dataclasses
import json

import numpy as np
import pytest

from driftcast import pipeline
from driftcast.errors import ConfigError, MismatchedRuns, ZeroActual
from driftcast.evaluation import EvaluationReport
from driftcast.ingest import DailyProfile, SplitSpec, generate_synthetic
from driftcast.pipeline import (
    RunConfig,
    compare,
    prepare_run,
    render_comparison,
    run,
    run_active,
    run_baseline,
    run_passive,
)

def _small_series(seed=0, n_days=12):
    profile = DailyProfile(base=10.0, peaks=((9.0, 2.0, 4.0),))
    return generate_synthetic(profile, [], noise_sd=0.4, seed=seed, n_days=n_days)


def _small_config(mode="baseline", tau=None, seed=0):
    return RunConfig(mode=mode, tau=tau, load_bandwidth=1.0,
                     hpo_initial_budget=1, hpo_adapt_budget=1, hpo_fit_epochs=1,
                     epochs_initial=3, epochs_incremental=1, patience=2, seed=seed,
                     deterministic_timing=True, learning_rates=(0.01,),
                     dropout_rates=(0.0,), n_units_values=(6,))
    # 12 days -> 9 pool (8 train + 1 validation) + 3 test


def _error_payload(report: EvaluationReport) -> bytes:
    """The mode-independent content: errors, costs, split, input identity."""
    data = report.to_dict()
    for key in ("mode", "tau", "drift_decisions"):
        data.pop(key)
    return json.dumps(data, sort_keys=True).encode()


class TestConfig:
    def test_active_requires_tau(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="active")

    def test_tau_forbidden_outside_active(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="passive", tau=0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"mode": "baseline", "warp_speed": 9})

    def test_dict_round_trip(self):
        config = _small_config("active", tau=0.1)
        assert RunConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(config)))) == config

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="hybrid")

    def test_a_bool_is_no_int_when_built(self):
        with pytest.raises(ConfigError, match="batch_size must be int, got True"):
            RunConfig(batch_size=True)


class TestBaseline:
    def test_never_adapts(self):
        report = run_baseline(_small_config(), _small_series())
        assert report.adaptation_count == 0
        assert report.drift_decisions == ()
        assert [e.kind for e in report.cost_entries] == ["initial_training"]

    def test_deterministic_reports(self):
        first = run_baseline(_small_config(), _small_series())
        second = run_baseline(_small_config(), _small_series())
        assert first.to_json() == second.to_json()

    def test_report_round_trips_through_schema(self):
        report = run_baseline(_small_config(), _small_series())
        assert EvaluationReport.from_json(report.to_json()) == report


class TestPassive:
    def test_one_adaptation_per_test_day(self):
        report = run_passive(_small_config("passive"), _small_series())
        assert report.adaptation_count == report.split["test_days"] == 3
        adaptations = [e for e in report.cost_entries if e.kind == "adaptation"]
        assert len(adaptations) == 3
        assert [e.day_index for e in adaptations] == \
               [d.day_index for d in report.daily_errors]

    def test_a_repeated_learning_rate_searches_its_one_distinct_point(self):
        # Both searches stop at exhaustion after the one distinct point, as a
        # one-rate space would.
        single = dataclasses.replace(_small_config("passive"), hpo_initial_budget=2,
                                     hpo_adapt_budget=2)
        repeated = dataclasses.replace(single, learning_rates=(0.01, 0.01))
        expected, report = run_passive(single, _small_series()), run_passive(repeated, _small_series())
        assert report.daily_errors == expected.daily_errors
        assert report.hpo_events == expected.hpo_events

    def test_hpo_events_cover_every_update(self):
        report = run_passive(_small_config("passive"), _small_series())
        assert [h.event for h in report.hpo_events] == [0, 1, 2, 3]
        assert report.hpo_events[0].day_index is None

    def test_beats_baseline_on_drift_scenario(self, scenario_sweep):
        wins = sum(r["passive"].mean_mape < r["baseline"].mean_mape
                   for r in scenario_sweep.values())
        assert wins >= 0.9 * len(scenario_sweep)


class TestActive:
    def test_tau_zero_reproduces_baseline_errors_bitwise(self):
        series = _small_series()
        baseline = run_baseline(_small_config(), series)
        zero = run_active(_small_config("active", tau=0.0), series)
        assert zero.adaptation_count == 0
        assert all(not d.is_drift for d in zero.drift_decisions)
        assert _error_payload(zero) == _error_payload(baseline)

    def test_tau_one_adapts_like_passive(self):
        series = _small_series()
        passive = run_passive(_small_config("passive"), series)
        one = run_active(_small_config("active", tau=1.0), series)
        assert one.adaptation_count == passive.adaptation_count == 3

    @pytest.mark.parametrize("seed", [0, 5])
    def test_tau_one_reproduces_passive_errors_bitwise(self, seed):
        series = _small_series(seed=seed)
        passive = run_passive(_small_config("passive", seed=seed), series)
        one = run_active(_small_config("active", tau=1.0, seed=seed), series)
        assert all(d.is_drift for d in one.drift_decisions)
        assert _error_payload(one) == _error_payload(passive)

    def test_decisions_recorded_every_day(self):
        report = run_active(_small_config("active", tau=0.1), _small_series())
        assert len(report.drift_decisions) == report.split["test_days"]
        assert report.adaptation_count == sum(d.is_drift for d in report.drift_decisions)

    def test_sensitivity_ordering_across_taus(self, scenario_sweep):
        for result in scenario_sweep.values():
            assert (result["active_007"].adaptation_count
                    <= result["active_010"].adaptation_count
                    <= result["active_015"].adaptation_count)

    def test_run_dispatches_by_mode(self):
        series = _small_series()
        report = run(_small_config("active", tau=0.5), series)
        assert report.mode == "active"
        assert report.tau == 0.5

    def test_run_active_rejects_a_passive_config(self):
        with pytest.raises(ConfigError):
            run_active(_small_config("passive"), _small_series())


class TestDetectorBypass:
    @pytest.mark.parametrize("run_mode", [run_baseline, run_passive])
    def test_never_touches_the_detector(self, monkeypatch, run_mode):
        def no_detector(*args, **kwargs):
            raise AssertionError("the detector ran outside active mode")

        for name in ("init_drift_state", "decide", "advance"):
            monkeypatch.setattr(pipeline, name, no_detector)
        report = run_mode(_small_config(), _small_series())
        assert report.drift_decisions == ()


class TestZeroActuals:
    def _series_with_zero_test_reading(self):
        series = _small_series()
        values = series.values.copy()
        values[-100] = 0.0  # inside the final test day
        return dataclasses.replace(series, values=values)

    def test_rejected_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the input")

        monkeypatch.setattr(pipeline, "train", no_training)
        series = self._series_with_zero_test_reading()
        with pytest.raises(ZeroActual):
            prepare_run(_small_config(), series)
        with pytest.raises(ZeroActual):
            run_passive(_small_config("passive"), series)

    def test_allowed_when_excluded(self):
        config = dataclasses.replace(_small_config(), exclude_zero_actuals=True)
        report = run_baseline(config, self._series_with_zero_test_reading())
        assert len(report.daily_errors) == 3

    def test_pretest_zero_is_not_scored(self):
        series = _small_series()
        values = series.values.copy()
        values[10] = 0.0  # first training day
        report = run_baseline(_small_config(), dataclasses.replace(series, values=values))
        assert len(report.daily_errors) == 3


class TestFailFast:
    def _no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before rejecting the config")

        monkeypatch.setattr(pipeline, "optimize", no_search)

    def test_input_len_must_fit_the_pretest_context(self, monkeypatch):
        self._no_search(monkeypatch)
        config = dataclasses.replace(_small_config(), input_len=9 * 144 + 1)
        with pytest.raises(ConfigError, match="input_len"):
            prepare_run(config, _small_series())

    @pytest.mark.parametrize("mode,tau,n_days,split,input_len,part", [
        ("baseline", None, 12, {}, 140, "validation"),
        ("active", 0.0, 12, {}, 140, "validation"),
        ("baseline", None, 12, {"validation_fraction_of_train": 0.8}, 2 * 144, "train"),
        ("passive", None, 26, {}, 140, "daily"),
        ("active", 1.0, 26, {}, 140, "daily"),
    ])
    def test_input_len_must_leave_every_part_a_window(self, monkeypatch, mode, tau, n_days,
                                                      split, input_len, part):
        # 140 + 6 readings do not fit one 10-minute day. Of 12 days the split keeps
        # one for validation, or two for training at validation_fraction_of_train 0.8.
        self._no_search(monkeypatch)
        config = dataclasses.replace(_small_config(mode, tau), input_len=input_len,
                                     split=SplitSpec(**split))
        with pytest.raises(ConfigError, match=rf"no window in the \d+ {part} readings"):
            prepare_run(config, _small_series(n_days=n_days))

    def test_the_widest_input_a_day_allows_is_accepted(self):
        config = dataclasses.replace(_small_config("passive"), input_len=138)
        prep = prepare_run(config, _small_series(n_days=26))
        assert len(prep.windows(prep.test_days[0].readings, config.input_len)) == 1
        assert len(prep.val_windows) == len(prep.validation_days) * 144 - 143
        baseline = dataclasses.replace(_small_config(), input_len=140)
        assert len(prepare_run(baseline, _small_series(n_days=26)).val_windows) > 0

    @pytest.mark.parametrize("override,match", [
        (dict(input_len=0), "input_len"),
        (dict(timing_coefficient=-1.0), "timing_coefficient"),
        (dict(timing_coefficient=float("inf")), "timing_coefficient"),
        (dict(load_bandwidth=float("inf")), "load_bandwidth"),
        (dict(price_rate=float("inf")), "price_rate"),
        (dict(learning_rates=(float("nan"),)), "learning_rate"),
        (dict(learning_rates=(float("inf"),)), "learning_rate"),
    ])
    def test_out_of_range_value_rejected_before_search(self, monkeypatch, override, match):
        self._no_search(monkeypatch)
        with pytest.raises(ConfigError, match=match):
            run(dataclasses.replace(_small_config("active", tau=0.5), **override), _small_series())


class TestScoringContext:
    def test_days_are_scored_from_the_context_tail(self, monkeypatch):
        seen = []
        predict_day = pipeline.predict_day

        def recording(model, context, readings):
            seen.append(np.size(context))
            return predict_day(model, context, readings)

        monkeypatch.setattr(pipeline, "predict_day", recording)
        config = _small_config("passive")
        run_passive(config, _small_series())
        assert seen == [config.input_len] * 3


class TestResumedFinalFit:
    @pytest.mark.parametrize("probe_epochs, epochs", [(1, 3), (2, 2), (3, 1)])
    def test_batches_per_adaptation(self, monkeypatch, probe_epochs, epochs):
        from driftcast import forecaster

        calls = [0]
        loss_and_gradients = forecaster._Workspace.loss_and_gradients

        def counting(work, *args, **kwargs):
            calls[0] += np.atleast_2d(work.weights.flat).shape[0]  # one batch per stacked member
            return loss_and_gradients(work, *args, **kwargs)

        per_event = []
        update_model = pipeline._update_model

        def recording(*args, **kwargs):
            before = calls[0]
            result = update_model(*args, **kwargs)
            per_event.append(calls[0] - before)
            return result

        monkeypatch.setattr(forecaster._Workspace, "loss_and_gradients", counting)
        monkeypatch.setattr(pipeline, "_update_model", recording)
        config = dataclasses.replace(_small_config("passive"), hpo_adapt_budget=2,
                                     learning_rates=(0.01, 0.001),
                                     hpo_fit_epochs=probe_epochs,
                                     epochs_incremental=epochs)
        series = _small_series()
        run_passive(config, series)
        prep = prepare_run(config, series)
        for day, count in zip(prep.test_days, per_event, strict=True):
            windows = len(prep.windows(day.readings, config.input_len))
            batches = -(-windows // config.batch_size)
            epochs_trained = (config.hpo_adapt_budget * probe_epochs
                              + max(epochs - probe_epochs, 0))
            assert count == epochs_trained * batches


class TestNoLeakage:
    def test_future_mutation_leaves_past_errors_unchanged(self):
        series = _small_series()
        baseline = run_baseline(_small_config(), series)

        mutated_values = series.values.copy()
        mutated_values[-60] += 3.0  # inside the final test day
        mutated_series = dataclasses.replace(series, values=mutated_values)
        mutated = run_baseline(_small_config(), mutated_series)

        original = [(e.day_index, e.mape, e.rmse) for e in baseline.daily_errors]
        perturbed = [(e.day_index, e.mape, e.rmse) for e in mutated.daily_errors]
        assert original[:-1] == perturbed[:-1]
        assert original[-1] != perturbed[-1]


class TestCosts:
    def test_cost_monotonicity_baseline_active_passive(self, scenario_sweep):
        for result in scenario_sweep.values():
            base = result["baseline"].total_cost
            passive = result["passive"].total_cost
            for key in ("active_007", "active_010", "active_015"):
                assert base <= result[key].total_cost <= passive

    def test_ledger_splits_tuning_from_fitting(self):
        config = dataclasses.replace(_small_config("passive"), hpo_adapt_budget=2,
                                     learning_rates=(0.01, 0.001))
        series = _small_series()
        report = run_passive(config, series)
        prep = prepare_run(config, series)
        entries = report.cost_entries[1:]
        assert [e.kind for e in entries] == ["hpo", "adaptation"] * len(prep.test_days)
        for day, hpo, fit in zip(prep.test_days, entries[::2], entries[1::2]):
            windows = len(prep.windows(day.readings, config.input_len))
            trials = config.hpo_adapt_budget  # one probe per learning rate
            tuning = config.timing_coefficient * config.hpo_fit_epochs * windows * trials
            fitting = config.timing_coefficient * config.epochs_incremental * windows
            assert hpo.day_index == fit.day_index == day.day
            assert hpo.duration_seconds == tuning
            assert fit.duration_seconds == fitting
            assert hpo.duration_seconds + fit.duration_seconds == tuning + fitting

    def test_deterministic_timing_is_reproducible(self):
        first = run_passive(_small_config("passive"), _small_series())
        second = run_passive(_small_config("passive"), _small_series())
        assert [e.duration_seconds for e in first.cost_entries] == \
               [e.duration_seconds for e in second.cost_entries]

    @pytest.mark.parametrize("mode, tau", [("passive", None), ("active", 0.15)])
    def test_wall_clock_timing_changes_only_the_costs(self, mode, tau):
        series = _small_series()
        charged = run(_small_config(mode, tau), series).to_dict()
        timed = run(dataclasses.replace(_small_config(mode, tau), deterministic_timing=False),
                    series).to_dict()
        assert [(e["day_index"], e["kind"]) for e in timed["cost_entries"]] == \
               [(e["day_index"], e["kind"]) for e in charged["cost_entries"]]
        assert all(e["duration_seconds"] > 0.0 for e in timed["cost_entries"])
        for key in ("cost_entries", "total_cost"):
            del charged[key], timed[key]
        assert timed == charged


class TestCompare:
    def test_baseline_versus_itself(self):
        report = run_baseline(_small_config(), _small_series())
        result = compare(report, [report])
        row = result["rows"][1]
        assert row["improvement_mape"] == 0.0
        assert row["trade_off_score"] == 0.0

    def test_mismatched_series_rejected(self):
        first = run_baseline(_small_config(), _small_series(seed=0))
        second = run_baseline(_small_config(), _small_series(seed=1))
        with pytest.raises(MismatchedRuns):
            compare(first, [second])

    def test_passive_improvement_dominates_most_sensitive_active(self, scenario_sweep):
        wins = 0
        for result in scenario_sweep.values():
            rows = compare(result["baseline"],
                           [result["passive"], result["active_007"]])["rows"]
            passive_imp = rows[1]["improvement_mape"]
            active_imp = rows[2]["improvement_mape"]
            wins += passive_imp >= active_imp
        assert wins >= 0.7 * len(scenario_sweep)

    def test_zero_cost_with_an_improvement_has_no_score(self):
        report = run_baseline(_small_config(), _small_series())
        free = dataclasses.replace(report, mean_mape=report.mean_mape / 2,
                                   cost_entries=())
        result = compare(report, [free])
        assert result["rows"][1]["improvement_mape"] == pytest.approx(50.0)
        assert result["rows"][1]["trade_off_score"] is None
        assert render_comparison(result).splitlines()[-1].split()[-1] == "-"

    def test_text_rendering_contains_all_rows(self):
        report = run_baseline(_small_config(), _small_series())
        text = render_comparison(compare(report, [report]))
        assert text.count("baseline") == 2
        assert "TS" in text


class TestStructuralRetune:
    def test_full_retrain_flag_changes_structure_when_beneficial(self):
        config = dataclasses.replace(
            _small_config("active", tau=1.0),  # adapt every day
            retune_units_full_retrain=True,
            n_units_values=(4, 6),
            hpo_adapt_budget=2,
        )
        report = run_active(config, _small_series())
        assert report.adaptation_count == 3
        # every adaptation re-tuned the full space; events must carry units
        tuned_units = {h.n_units for h in report.hpo_events if h.event > 0}
        assert tuned_units <= {4, 6}
        # the full search's trials are its fits: all of it is fitting time
        assert all(e.duration_seconds == 0.0 for e in report.cost_entries if e.kind == "hpo")
        assert all(e.duration_seconds > 0.0 for e in report.cost_entries
                   if e.kind == "adaptation")


class TestStackedSearch:
    def test_initial_search_trains_its_seeding_stack_once(self, monkeypatch):
        # Three same-width seeding trials stop at different epochs; one stack
        # pays one call per batch for as many epochs as its longest member.
        from driftcast import forecaster
        from driftcast.hpo import seeding_points

        config = dataclasses.replace(_small_config(), hpo_initial_budget=3, epochs_initial=8,
                                     patience=0, learning_rates=(0.0001, 0.001, 0.01))
        prep = prepare_run(config, _small_series())
        calls = [0]
        loss_and_gradients = forecaster._Workspace.loss_and_gradients

        def counting(*args, **kwargs):
            calls[0] += 1
            return loss_and_gradients(*args, **kwargs)

        monkeypatch.setattr(forecaster._Workspace, "loss_and_gradients", counting)
        space = pipeline.SearchSpace(config.learning_rates, config.dropout_rates,
                                     config.n_units_values)
        batches = -(-len(prep.train_windows) // config.batch_size)
        epochs_run = []
        for hp in seeding_points(space, 3, pipeline._derived_seed(config.seed, 0)):
            calls[0] = 0
            forecaster.train(forecaster.new_model(hp, prep.norm, rng_seed=config.seed),
                             prep.train_windows, prep.val_windows, epochs=config.epochs_initial,
                             patience=config.patience)
            epochs_run.append(calls[0] // batches)
        assert len(set(epochs_run)) > 1  # the members really stop at different epochs
        calls[0] = 0
        run_baseline(config, _small_series())
        assert calls[0] == max(epochs_run) * batches

    def _recording_optimize(self, monkeypatch) -> list:
        """Have every search hand its trial list to the returned list too."""
        searched, optimize = [], pipeline.optimize

        def recording(*args, **kwargs):
            best_hp, trials = optimize(*args, **kwargs)
            searched.append(trials)
            return best_hp, trials

        monkeypatch.setattr(pipeline, "optimize", recording)
        return searched

    def test_only_the_first_lowest_trial_is_kept_across_interleaved_widths(self, monkeypatch):
        from driftcast.hpo import seeding_points

        space = pipeline.SearchSpace(learning_rates=(0.001, 0.01), dropout_rates=(0.0, 0.2),
                                     n_units_values=(4, 8))
        config = RunConfig(deterministic_timing=True, timing_coefficient=1.0)
        seeding = seeding_points(space, 7, 3)
        searched = self._recording_optimize(monkeypatch)
        # Widths 8, 4, 8, ...: the first group trained holds trials 0 and 2, so a
        # tie between trials 1 and 2 must still go to trial 1, as optimize's min.
        assert [hp.n_units for hp in seeding[:3]] == [8, 4, 8]
        for score in (lambda hp: 1.0, lambda hp: 2.0 if hp == seeding[0] else 1.0,
                      lambda hp: hp.n_units + hp.dropout_rate, lambda hp: -hp.learning_rate):
            groups = []

            def fit(group):
                groups.append(group)
                return [(score(hp), hp) for hp in group]

            best_hp, best_score, kept, duration = pipeline._search(config, space, 7, 3, fit, 2, 3)
            trials = searched[-1]
            assert best_score == min(t.score for t in trials)
            assert duration == 2 * 3 * len(trials)  # epochs x windows x trials
            assert [t.hyperparameters for t in trials[:5]] == seeding
            assert kept == best_hp == min(trials, key=lambda t: t.score).hyperparameters
            assert all(len({hp.n_units for hp in group}) == 1 for group in groups)
            assert {hp for group in groups[:2] for hp in group} == set(seeding)
            assert [len(group) for group in groups[2:]] == [1, 1]  # surrogate trials alone

    def test_only_narrow_seeding_groups_train_as_a_stack(self, monkeypatch):
        from driftcast.hpo import seeding_points

        space = pipeline.SearchSpace(learning_rates=(0.0001, 0.001, 0.01), dropout_rates=(0.0,),
                                     n_units_values=(32, 64))
        config = RunConfig(deterministic_timing=True, timing_coefficient=1.0)
        seeding, groups = seeding_points(space, 5, 0), []
        searched = self._recording_optimize(monkeypatch)

        def fit(group):
            groups.append(group)
            return [(hp.learning_rate, hp) for hp in group]

        best_hp, _, kept, _ = pipeline._search(config, space, 5, 0, fit, 1, 1)
        trials = searched[-1]
        narrow = [hp for hp in seeding if hp.n_units <= pipeline._STACK_MAX_UNITS]
        assert len(narrow) > 1 and len(narrow) < len(seeding)
        assert narrow in groups
        assert all(len(group) == 1 for group in groups if group != narrow)
        assert len(groups) == 1 + len(seeding) - len(narrow)
        assert kept == best_hp == min(trials, key=lambda t: t.score).hyperparameters
