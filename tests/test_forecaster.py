"""LSTM forward/backward, training, incremental updates and day prediction."""
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from driftcast.errors import (
    DivergedLoss,
    EmptyTrainingSet,
    InsufficientContext,
    NonFiniteInput,
)
from driftcast.forecaster import (
    ForecastModel,
    _Adam,
    _forward,
    _sigmoid,
    batch_forward,
    Hyperparameters,
    LstmWeights,
    NormStats,
    SupervisedWindow,
    SupervisedWindows,
    build_windows,
    incremental_update,
    load_model,
    loss_and_gradients,
    new_model,
    predict_day,
    save_model,
    stack_windows,
    train,
)

HP = Hyperparameters(learning_rate=0.01, dropout_rate=0.0, n_units=6)


def _model(n_units=6, seed=0, vmin=0.0, vmax=1.0, input_len=12, horizon=6,
           dropout=0.0):
    hp = Hyperparameters(learning_rate=0.01, dropout_rate=dropout, n_units=n_units)
    return new_model(hp, NormStats(vmin=vmin, vmax=vmax), input_len=input_len,
                     horizon=horizon, rng_seed=seed)


def _weights_equal(a: LstmWeights, b: LstmWeights) -> bool:
    """Same shape and the same bits in every parameter."""
    return (a.n_units == b.n_units and a.horizon == b.horizon
            and np.array_equal(a.flat, b.flat))


class TestWindows:
    @pytest.mark.parametrize("n,expected", [(18, 1), (19, 2), (17, 0), (30, 13)])
    def test_window_counts(self, n, expected):
        assert len(build_windows(np.arange(n))) == expected

    def test_windows_are_contiguous_and_disjoint(self):
        windows = build_windows(np.arange(20.0))
        first = windows[0]
        assert np.array_equal(first.input, np.arange(12.0))
        assert np.array_equal(first.target, np.arange(12.0, 18.0))

    def test_block_matches_the_per_window_loop_bitwise(self):
        rng = np.random.default_rng(21)
        for input_len, horizon in ((12, 6), (1, 1), (30, 6), (138, 6), (5, 9)):
            for n in (0, input_len + horizon - 1, input_len + horizon,
                      *rng.integers(0, 3 * (input_len + horizon), 8)):
                segment = rng.normal(size=n)
                block, oracle = build_windows(segment, input_len, horizon), _windows_oracle(
                    segment, input_len, horizon)
                assert isinstance(block, SupervisedWindows)
                assert len(block) == len(oracle)
                assert block.inputs.shape == (len(oracle), input_len)
                assert block.targets.shape == (len(oracle), horizon)
                for got, want in zip(block, oracle):
                    assert got.input.tobytes() == want.input.tobytes()
                    assert got.target.tobytes() == want.target.tobytes()
                if oracle:
                    for got, want in zip(stack_windows(block), stack_windows(oracle)):
                        assert got.tobytes() == want.tobytes()

    def test_views_are_read_only_and_share_the_segment(self):
        segment = np.random.default_rng(22).random(50)
        block = build_windows(segment, 12, 6)
        inputs, targets = stack_windows(block)
        assert inputs is block.inputs and targets is block.targets
        for view in (inputs, targets, block[3].input, block[3].target, block[2:9].inputs):
            assert np.shares_memory(view, segment)
            assert not view.flags.writeable
        with pytest.raises(ValueError):
            block.inputs[0, 0] = 1.0
        part = block[5:9]
        assert isinstance(part, SupervisedWindows) and len(part) == 4
        assert part[0].input.tobytes() == segment[5:17].tobytes()
        assert block[-1].target.tobytes() == segment[-6:].tobytes()

    def test_train_on_a_list_of_windows_equals_train_on_the_block(self):
        windows, val = _training_set(np.random.default_rng(23), n_days=2)
        # The form of a caller that builds its windows by hand: separate arrays.
        listed, listed_val = ([SupervisedWindow(input=np.array(w.input), target=np.array(w.target))
                               for w in block] for block in (windows, val))
        model = _model(seed=9, dropout=0.2)
        for got, want in ((train(model, listed, listed_val, epochs=3),
                           train(model, windows, val, epochs=3)),
                          (incremental_update(model, listed[:70], HP, epochs=2),
                           incremental_update(model, windows[:70], HP, epochs=2))):
            assert got.weights.flat.tobytes() == want.weights.flat.tobytes()


def _windows_oracle(segment, input_len, horizon):
    """The per-window loop `build_windows` replaced: one copied pair per window."""
    seg = np.asarray(segment, dtype=float).ravel()
    windows = []
    for start in range(seg.size - input_len - horizon + 1):
        windows.append(SupervisedWindow(
            input=seg[start : start + input_len].copy(),
            target=seg[start + input_len : start + input_len + horizon].copy()))
    return windows


class TestForward:
    def test_zero_weights_give_zero_output(self):
        model = _model()
        zeros = LstmWeights(np.zeros_like(model.weights.flat), 6, 6)
        model = ForecastModel(weights=zeros, hyperparameters=model.hyperparameters,
                              norm_stats=model.norm_stats, rng_seed=0)
        out = batch_forward(model.weights, np.linspace(-1, 1, 12)[None, :])
        assert np.array_equal(out, np.zeros((1, 6)))

    def test_one_unit_single_step_matches_hand_computation(self):
        # Scalar cell, one unrolled step: every gate evaluated by hand.
        names = {
            "W_z": 0.3, "R_z": 0.7, "b_z": 0.1,
            "W_i": 0.2, "R_i": -0.4, "b_i": -0.1, "p_i": 0.4,
            "W_f": -0.3, "R_f": 0.5, "b_f": 0.2, "p_f": -0.6,
            "W_o": 0.6, "R_o": 0.25, "b_o": -0.2, "p_o": 0.5,
            "W_out": 0.9, "b_out": 0.05,
        }
        weights = LstmWeights(np.zeros(len(names)), n_units=1, horizon=1)  # one scalar each
        for key, value in names.items():
            weights[key][...] = value
        hp = Hyperparameters(learning_rate=0.01, dropout_rate=0.0, n_units=1)
        model = ForecastModel(weights=weights, hyperparameters=hp,
                              norm_stats=NormStats(0.0, 1.0), input_len=1,
                              horizon=1, rng_seed=0)

        x = 0.5
        sigmoid = lambda v: 1.0 / (1.0 + math.exp(-v))
        z = math.tanh(names["W_z"] * x + names["b_z"])         # h0 = 0
        i = sigmoid(names["W_i"] * x + names["b_i"])           # c0 = 0
        f = sigmoid(names["W_f"] * x + names["b_f"])
        c = z * i
        o = sigmoid(names["W_o"] * x + names["p_o"] * c + names["b_o"])
        h = o * math.tanh(c)
        expected = names["W_out"] * h + names["b_out"]

        out = batch_forward(model.weights, np.array([[x]]))
        assert out[0, 0] == pytest.approx(expected, abs=1e-10)

    def test_output_length_is_horizon(self):
        model = _model()
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert batch_forward(model.weights, rng.normal(size=(1, 12))).shape == (1, 6)

    def test_nonfinite_input_rejected(self):
        model = _model()
        bad = np.ones(144)
        bad[4] = np.nan
        with pytest.raises(NonFiniteInput):
            predict_day(model, bad, np.ones(144))
        with pytest.raises(NonFiniteInput):
            predict_day(model, np.ones(144), bad)

    def test_inference_is_deterministic_with_dropout_configured(self):
        model = _model(dropout=0.5)
        x = np.linspace(0, 1, 12)[None, :]
        assert np.array_equal(batch_forward(model.weights, x), batch_forward(model.weights, x))


class TestGradients:
    def test_bptt_matches_central_differences(self):
        rng = np.random.default_rng(7)
        weights = LstmWeights.initialize(n_units=4, horizon=6, rng=rng)
        inputs = rng.normal(0.5, 0.3, (3, 12))
        targets = rng.normal(0.5, 0.3, (3, 6))
        _, grads = loss_and_gradients(weights, inputs, targets)

        step = 1e-4
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
            assert rel.max() < 1e-4, f"gradient mismatch in {name}: {rel.max():.2e}"


def _training_set(rng, n_days=4):
    t = np.arange(n_days * 144)
    signal = 0.5 + 0.3 * np.sin(2 * np.pi * t / 144) + rng.normal(0, 0.02, t.size)
    windows = build_windows(signal)
    return windows[: int(len(windows) * 0.8)], windows[int(len(windows) * 0.8):]


class TestTrain:
    def test_loss_decreases_on_learnable_signal(self):
        rng = np.random.default_rng(0)
        windows, val = _training_set(rng)
        model = _model(seed=1)
        from driftcast.forecaster import _mse, stack_windows
        inputs, targets = stack_windows(windows)
        before = _mse(model.weights, inputs, targets)
        fitted = train(model, windows, val, epochs=10)
        after = _mse(fitted.weights, inputs, targets)
        assert after < before

    def test_same_seed_gives_identical_weights(self):
        rng = np.random.default_rng(1)
        windows, val = _training_set(rng)
        first = train(_model(seed=5, dropout=0.1), windows, val, epochs=4)
        second = train(_model(seed=5, dropout=0.1), windows, val, epochs=4)
        assert _weights_equal(first.weights, second.weights)

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            train(_model(), [], [], epochs=1)

    def test_diverged_loss_detected(self):
        windows = build_windows(np.full(20, np.inf))
        with np.errstate(invalid="ignore"), pytest.raises(DivergedLoss):
            train(_model(), windows, [], epochs=1)

    def test_input_model_not_mutated(self):
        rng = np.random.default_rng(2)
        windows, val = _training_set(rng)
        model = _model(seed=3)
        snapshot = LstmWeights(model.weights.flat.copy(), 6, 6)
        train(model, windows, val, epochs=2)
        assert _weights_equal(model.weights, snapshot)


class TestIncrementalUpdate:
    def test_empty_batch_is_noop(self):
        model = _model()
        updated = incremental_update(model, [], HP)
        assert updated is model
        assert updated.version == model.version

    def test_training_resumes_from_stored_weights(self):
        # With a vanishing learning rate the "update" must stay at the stored
        # weights; a re-initialization would land somewhere else entirely.
        rng = np.random.default_rng(3)
        windows, val = _training_set(rng)
        model = train(_model(seed=4), windows, val, epochs=3)
        tiny = Hyperparameters(learning_rate=1e-12, dropout_rate=0.0, n_units=6)
        updated = incremental_update(model, windows[:40], tiny, epochs=1)
        for name, arr in model.weights.as_dict().items():
            assert np.max(np.abs(getattr(updated.weights, name) - arr)) < 1e-8

    def test_version_increments_and_input_model_retained(self):
        rng = np.random.default_rng(4)
        windows, _ = _training_set(rng)
        model = _model(seed=6)
        snapshot = LstmWeights(model.weights.flat.copy(), 6, 6)
        updated = incremental_update(model, windows[:50], HP, epochs=2)
        assert updated.version == model.version + 1
        assert _weights_equal(model.weights, snapshot)
        assert not _weights_equal(updated.weights, snapshot)
        again = incremental_update(updated, windows[:50], HP, epochs=2)
        assert again.version == updated.version + 1

    def test_structural_change_rejected(self):
        rng = np.random.default_rng(5)
        windows, _ = _training_set(rng)
        wrong = Hyperparameters(learning_rate=0.01, dropout_rate=0.0, n_units=12)
        with pytest.raises(ValueError):
            incremental_update(_model(n_units=6), windows[:10], wrong)

    def test_resume_keeps_the_run_rates_and_epochs(self):
        rng = np.random.default_rng(5)
        windows, _ = _training_set(rng)
        model = _model(n_units=6)
        _, run = incremental_update(model, windows[:10], HP, epochs=2, keep_run_after=2)
        other = dataclasses.replace(HP, learning_rate=HP.learning_rate / 2)
        with pytest.raises(ValueError):
            incremental_update(model, windows[:10], other, epochs=3, resume=run)
        with pytest.raises(ValueError):
            incremental_update(model, windows[:10], HP, epochs=1, resume=run)
        assert run.epochs_done == 2

    def test_update_on_shifted_day_beats_stale_model(self):
        # Paired comparison over 20 seeds: adapt on the first shifted day,
        # score on the second. The adapted model must win at least 80%.
        from driftcast.evaluation import mape

        wins = 0
        seeds = range(20)
        for seed in seeds:
            rng = np.random.default_rng([100, seed])
            t = np.arange(6 * 144)
            base = 10 + 2 * np.sin(2 * np.pi * t / 144) + rng.normal(0, 0.3, t.size)
            shift_a = base[:144] + 6.0 + rng.normal(0, 0.3, 144)
            shift_b = base[144:288] + 6.0 + rng.normal(0, 0.3, 144)

            norm = NormStats.fit(base)
            hp = Hyperparameters(learning_rate=0.01, dropout_rate=0.0, n_units=6)
            model = new_model(hp, norm, rng_seed=seed)
            model = train(model, build_windows(norm.normalize(base)), [], epochs=4)

            updated = incremental_update(model, build_windows(norm.normalize(shift_a)),
                                         hp, epochs=4)

            def day_mape(m):
                forecasts = predict_day(m, np.concatenate([base, shift_a]), shift_b)
                return np.mean([mape(shift_b[h * 6:(h + 1) * 6], f)
                                for h, f in enumerate(forecasts)])

            if day_mape(updated) < day_mape(model):
                wins += 1
        assert wins >= 0.8 * len(list(seeds))


class TestPredictDay:
    def test_shapes_24_hours_of_horizon_steps(self):
        rng = np.random.default_rng(6)
        model = _model(vmin=0.0, vmax=20.0)
        context = rng.uniform(5, 15, 400)
        day = rng.uniform(5, 15, 144)
        forecasts = predict_day(model, context, day)
        assert len(forecasts) == 24
        assert all(f.shape == (6,) for f in forecasts)

    def test_causality_future_readings_do_not_matter(self):
        rng = np.random.default_rng(7)
        model = _model(vmin=0.0, vmax=20.0)
        context = rng.uniform(5, 15, 200)
        day = rng.uniform(5, 15, 144)
        baseline = predict_day(model, context, day)
        for hour in (0, 5, 23):
            mutated = day.copy()
            mutated[(hour * 6):] = rng.uniform(5, 15, 144 - hour * 6)
            permuted = predict_day(model, context, mutated)
            for h in range(hour + 1):
                # hour h uses readings strictly before slot h*6 only
                if h < hour:
                    assert np.array_equal(baseline[h], permuted[h])

    def test_trained_constant_model_predicts_the_constant(self):
        constant = 5.0
        series = np.full(3 * 144, constant)
        norm = NormStats.fit(series)
        model = new_model(HP, norm, rng_seed=8)
        model = train(model, build_windows(norm.normalize(series)), [], epochs=30)
        forecasts = predict_day(model, series, np.full(144, constant))
        stacked = np.concatenate(forecasts)
        assert np.all(np.abs(stacked - constant) / constant < 0.05)

    def test_matches_the_per_hour_loop_bitwise(self):
        rng = np.random.default_rng(24)
        for input_len, context_len in ((12, 12), (12, 400), (30, 31), (138, 144)):
            model = _model(seed=input_len, vmin=2.0, vmax=17.0, input_len=input_len)
            context, day = rng.uniform(5, 15, context_len), rng.uniform(5, 15, 144)
            # The loop `predict_day` replaced: one normalized slice per hour, stacked.
            normalized = model.norm_stats.normalize(np.concatenate([context, day]))
            rows = np.stack([normalized[context_len + 6 * hour - input_len : context_len + 6 * hour]
                             for hour in range(24)])
            want = model.norm_stats.denormalize(batch_forward(model.weights, rows))
            got = predict_day(model, context, day)
            assert np.stack(got).tobytes() == want.tobytes()

    def test_insufficient_context_rejected(self):
        model = _model()
        with pytest.raises(InsufficientContext):
            predict_day(model, np.ones(5), np.ones(144))


class TestNormalizationAndCheckpoint:
    def test_round_trip_identity(self):
        norm = NormStats(vmin=3.0, vmax=17.0)
        values = np.linspace(3.0, 17.0, 31)
        assert np.allclose(norm.denormalize(norm.normalize(values)), values,
                           rtol=1e-12, atol=0)

    def test_degenerate_span_guard(self):
        norm = NormStats.fit([4.0, 4.0])
        assert norm.normalize([4.0])[0] == 0.0
        assert norm.denormalize(norm.normalize([4.0]))[0] == 4.0

    def test_checkpoint_round_trips_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        windows, val = _training_set(rng)
        model = train(_model(seed=11, vmin=2.0, vmax=9.0), windows, val, epochs=2)
        model = incremental_update(model, windows[:30], HP, epochs=1)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert _weights_equal(loaded.weights, model.weights)
        assert loaded.hyperparameters == model.hyperparameters
        assert loaded.norm_stats == model.norm_stats
        assert loaded.version == model.version
        assert loaded.rng_seed == model.rng_seed

    def test_older_checkpoint_version_rejected(self, tmp_path):
        # Version 1 stored one array per named tensor; version 2 stores the
        # packed vector.
        model = _model(seed=12)
        meta = {"checkpoint_version": 1, "learning_rate": 0.01, "dropout_rate": 0.0,
                "n_units": 6, "vmin": 0.0, "vmax": 1.0, "input_len": 12,
                "horizon": 6, "rng_seed": 12, "version": 0}
        arrays = {f"weight_{name}": arr for name, arr in model.weights.as_dict().items()}
        path = tmp_path / "v1.npz"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_model(path)


class TestPackedLayout:
    def test_named_tensors_tile_the_flat_vector(self):
        weights = LstmWeights.initialize(n_units=5, horizon=3,
                                         rng=np.random.default_rng(13))
        views = weights.as_dict()
        assert sum(v.size for v in views.values()) == weights.flat.size
        for name, view in views.items():
            assert np.shares_memory(view, weights.flat), name
            before = weights.flat.copy()
            view.ravel()[0] += 1.0
            assert np.count_nonzero(weights.flat != before) == 1, name

    def test_initialize_keeps_the_per_tensor_draw_order(self):
        # Gates i, f, o, z with W, R, b each, then the peepholes and the
        # output layer: the order the weights were always drawn in.
        units, horizon, bound = 4, 6, 0.5
        rng = np.random.default_rng(14)
        expected = {}
        for gate in "ifoz":
            expected[f"W_{gate}"] = rng.uniform(-bound, bound, units)
            expected[f"R_{gate}"] = rng.uniform(-bound, bound, (units, units))
            expected[f"b_{gate}"] = rng.uniform(-bound, bound, units)
        for name in ("p_i", "p_f", "p_o"):
            expected[name] = rng.uniform(-bound, bound, units)
        expected["W_out"] = rng.uniform(-bound, bound, (horizon, units))
        expected["b_out"] = rng.uniform(-bound, bound, horizon)
        weights = LstmWeights.initialize(units, horizon, np.random.default_rng(14))
        for name in LstmWeights.NAMES:
            assert weights[name].tobytes() == expected[name].tobytes(), name

    def test_gradient_is_packed_like_the_weights(self):
        weights = _model().weights
        rng = np.random.default_rng(15)
        _, grads = loss_and_gradients(weights, rng.random((4, 12)), rng.random((4, 6)))
        assert grads.flat.shape == weights.flat.shape
        for name in LstmWeights.NAMES:
            assert grads[name].shape == weights[name].shape


# --- the packed LSTM against the per-gate reference --------------------------
#
# The per-gate forward, backward and Adam that the packed LSTM replaced, kept
# as its oracle. The packed code keeps every per-element operation order, so it
# must match bit for bit wherever the stacked matmuls do; at other widths
# OpenBLAS may pick another kernel for the stacked shape and move last bits.

def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_loss_and_gradients(w, inputs, targets, mask):
    batch, units = inputs.shape[0], w["W_i"].size
    h, c, cache = np.zeros((batch, units)), np.zeros((batch, units)), []
    for t in range(inputs.shape[1]):
        x = inputs[:, t][:, None]
        z = np.tanh(x * w["W_z"] + h @ w["R_z"].T + w["b_z"])
        i = _ref_sigmoid(x * w["W_i"] + h @ w["R_i"].T + c * w["p_i"] + w["b_i"])
        f = _ref_sigmoid(x * w["W_f"] + h @ w["R_f"].T + c * w["p_f"] + w["b_f"])
        c_new = z * i + c * f
        o = _ref_sigmoid(x * w["W_o"] + h @ w["R_o"].T + c_new * w["p_o"] + w["b_o"])
        tanh_c = np.tanh(c_new)
        cache.append((x, h, c, z, i, f, c_new, o, tanh_c))
        h, c = o * tanh_c, c_new
    h_drop = h if mask is None else h * mask
    outputs = h_drop @ w["W_out"].T + w["b_out"]
    diff = outputs - targets

    g = {name: np.zeros_like(arr) for name, arr in w.items()}
    d_out = 2.0 * diff / diff.size
    g["W_out"] = d_out.T @ h_drop
    g["b_out"] = d_out.sum(axis=0)
    dh = d_out @ w["W_out"]
    if mask is not None:
        dh = dh * mask
    dc_next = np.zeros((batch, units))
    for x, h_prev, c_prev, z, i, f, c_t, o, tanh_c in reversed(cache):
        d = {"o": dh * tanh_c * o * (1.0 - o)}
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next + d["o"] * w["p_o"]
        d["z"] = dc * i * (1.0 - z * z)
        d["i"] = dc * z * i * (1.0 - i)
        d["f"] = dc * c_prev * f * (1.0 - f)
        dc_next = dc * f + d["i"] * w["p_i"] + d["f"] * w["p_f"]
        dh = d["z"] @ w["R_z"] + d["i"] @ w["R_i"] + d["f"] @ w["R_f"] + d["o"] @ w["R_o"]
        for gate, d_pre in d.items():
            g[f"W_{gate}"] += (d_pre * x).sum(axis=0)
            g[f"R_{gate}"] += d_pre.T @ h_prev
            g[f"b_{gate}"] += d_pre.sum(axis=0)
        g["p_i"] += (d["i"] * c_prev).sum(axis=0)
        g["p_f"] += (d["f"] * c_prev).sum(axis=0)
        g["p_o"] += (d["o"] * c_t).sum(axis=0)
    return outputs, float(np.mean(diff * diff)), g


def _ref_adam_steps(w, inputs, targets, mask, learning_rate, steps):
    m = {name: np.zeros_like(arr) for name, arr in w.items()}
    v = {name: np.zeros_like(arr) for name, arr in w.items()}
    for step in range(1, steps + 1):
        _, _, grads = _ref_loss_and_gradients(w, inputs, targets, mask)
        bias1, bias2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
        for name, grad in grads.items():
            m[name] = 0.9 * m[name] + (1 - 0.9) * grad
            v[name] = 0.999 * v[name] + (1 - 0.999) * grad * grad
            w[name] = w[name] - learning_rate * (m[name] / bias1) / (
                np.sqrt(v[name] / bias2) + 1e-8)
    return w


def _against_reference(units, batch, dropout):
    """(packed, reference) pairs: outputs, loss, gradients, weights after Adam."""
    rng = np.random.default_rng([units, batch, dropout])
    weights = LstmWeights.initialize(units, 6, rng)
    reference = {name: arr.copy() for name, arr in weights.as_dict().items()}
    inputs, targets = rng.random((batch, 12)), rng.random((batch, 6))
    mask = None
    if dropout:
        mask = (rng.random((batch, units)) >= 0.3) / 0.7

    ref_out, ref_loss, ref_grads = _ref_loss_and_gradients(reference, inputs, targets, mask)
    loss, grads = loss_and_gradients(weights, inputs, targets, mask)
    h, _ = _forward(weights, inputs, keep_cache=False)
    h = h if mask is None else h * mask
    pairs = [("outputs", h @ weights.W_out.T + weights.b_out, ref_out),
             ("loss", np.array(loss), np.array(ref_loss))]
    if mask is None:
        pairs.append(("batch_forward", batch_forward(weights, inputs), ref_out))
    pairs += [(f"grad {name}", grads[name], ref_grads[name]) for name in LstmWeights.NAMES]

    adam = _Adam(weights, 0.01)
    for _ in range(3):
        adam.update(weights, loss_and_gradients(weights, inputs, targets, mask)[1])
    reference = _ref_adam_steps(reference, inputs, targets, mask, 0.01, 3)
    pairs += [(f"adam {name}", weights[name], reference[name]) for name in LstmWeights.NAMES]
    return pairs


class TestPackedAgainstPerGateReference:
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("batch", [1, 7, 24, 32, 500])
    def test_bit_identical_at_eight_units(self, batch, dropout):
        for label, packed, reference in _against_reference(8, batch, dropout):
            assert packed.tobytes() == reference.tobytes(), label

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("batch", [3, 7, 32])
    @pytest.mark.parametrize("units", [1, 4, 64, 128])
    def test_agrees_to_1e_12_at_other_widths(self, units, batch, dropout):
        # Relative to each tensor's largest magnitude: a last-bit change in
        # one matmul moves elements that nearly cancel by more, relatively.
        for label, packed, reference in _against_reference(units, batch, dropout):
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(packed - reference)) <= 1e-12 * scale, label

    def test_sigmoid_matches_the_masked_form_without_warnings(self):
        rng = np.random.default_rng(16)
        edges = [np.inf, -np.inf, 800.0, -800.0, 0.0, -0.0, 36.0, -37.0, 709.0, -740.0, np.nan]
        x = np.concatenate([edges, rng.normal(0.0, 10.0, 1165)])  # 1176 = 7*3*56 = 2*4*7*21
        with np.errstate(under="ignore"):
            expected = _ref_sigmoid(x)
        # Flat; strided; and the i, f rows of a stack of two (4, 7, 21) gate blocks,
        # written into the same rows of another. `_sigmoid` overwrites its input.
        shapes = [(lambda a: a, x.shape), (lambda a: a[:, 1:], (7, 3, 56)),
                  (lambda a: a[:, 1:3], (2, 4, 7, 21))]
        for view, shape in shapes:
            out = view(np.full(shape, -1.0))
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                got = _sigmoid(view(x.reshape(shape).copy()), out)
            assert got is out
            assert got.tobytes() == view(expected.reshape(shape)).tobytes(), shape
        got = _sigmoid(x.copy(), np.empty_like(x))
        assert got[0] == 1.0 and got[1] == 0.0 and got[4] == got[5] == 0.5
        assert np.isnan(got[10])

# --- the gate-major step against the row-layout one ----------------------------
#
# The row-layout forward and backward that the gate-major step replaced, kept
# as its oracle: the same matmuls and batch sums, with the gate math on strided
# (batch, U) views of (batch, 4U) rows and the parameters broadcast every step.

def _row_sigmoid(x):
    e = np.abs(x)
    np.negative(e, out=e)
    with np.errstate(under="ignore"):
        np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _row_forward(w, inputs):
    lead, units = w.flat.shape[:-1], w.n_units
    batch, steps = inputs.shape[-2:]
    b, p = w.b.reshape(*lead, 1, 4, units), w.p.reshape(*lead, 1, 3, units)
    b_zif, b_o, p_if, p_o = b[..., :3, :], b[..., 3, :], p[..., :2, :], p[..., 2, :]
    W, R_T = w.W[..., None, :], w.R.swapaxes(-1, -2)
    xs = inputs[..., None]
    pre = np.empty((*lead, batch, 4, units))
    pre_all, pre_zif, pre_z, pre_if, pre_o = (
        pre.reshape(*lead, batch, 4 * units), pre[..., :3, :], pre[..., 0, :],
        pre[..., 1:3, :], pre[..., 3, :])
    h, c, cache = np.zeros((*lead, batch, units)), np.zeros((*lead, batch, units)), []
    for t in range(steps):
        x_t = xs[..., t, :]
        np.multiply(x_t, W, out=pre_all)
        pre_all += h @ R_T
        pre_if += c[..., None, :] * p_if
        pre_zif += b_zif
        z = np.tanh(pre_z)
        i_f = _row_sigmoid(pre_if)
        c_new = z * i_f[..., 0, :]
        c_new += c * i_f[..., 1, :]
        pre_o += c_new * p_o
        pre_o += b_o
        o_g = _row_sigmoid(pre_o)
        tanh_c = np.tanh(c_new)
        cache.append((x_t, h, c, z, i_f, c_new, o_g, tanh_c))
        h, c = o_g * tanh_c, c_new
    return h, cache


def _row_batch_forward(w, inputs):
    return _row_forward(w, inputs)[0] @ w.W_out.swapaxes(-1, -2) + w.b_out[..., None, :]


def _row_loss_and_gradients(w, inputs, targets, mask):
    lead, units = w.flat.shape[:-1], w.n_units
    batch, steps = inputs.shape[-2:]
    h_final, cache = _row_forward(w, inputs)
    h_drop = h_final if mask is None else h_final * mask
    diff = h_drop @ w.W_out.swapaxes(-1, -2) + w.b_out[..., None, :] - targets
    losses = [float(np.mean(m)) for m in (diff * diff).reshape(-1, *diff.shape[-2:])]
    grads = LstmWeights(np.zeros_like(w.flat), units, w.horizon)
    d_out = 2.0 * diff / (batch * w.horizon)
    grads.W_out[...] = d_out.swapaxes(-1, -2) @ h_drop
    grads.b_out[...] = d_out.sum(axis=-2)
    dh = d_out @ w.W_out
    if mask is not None:
        dh = dh * mask
    dc_next = np.zeros((*lead, batch, units))
    p = w.p.reshape(*lead, 1, 3, units)
    p_i, p_f, p_o = p[..., 0, :], p[..., 1, :], p[..., 2, :]
    head = np.empty((*lead, batch, 11 * units))
    xd, d_all = head[..., : 4 * units], head[..., 4 * units : 8 * units]
    cd_if = head[..., 8 * units : 10 * units].reshape(*lead, batch, 2, units)
    cd_o = head[..., 10 * units :]
    d = d_all.reshape(*lead, batch, 4, units)
    dz, di, df, do, d_if = (d[..., 0, :], d[..., 1, :], d[..., 2, :], d[..., 3, :],
                            d[..., 1:3, :])
    grad_head = grads.flat[..., : 11 * units]
    grad_R_t = np.empty_like(w.R)
    for x_t, h_prev, c_prev, z, i_f, c_t, o_g, tanh_c in reversed(cache):
        np.multiply(dh, tanh_c, out=do)
        do *= o_g
        do *= 1.0 - o_g
        dc = dh * o_g * (1.0 - tanh_c * tanh_c) + dc_next + do * p_o
        np.multiply(dc, i_f[..., 0, :], out=dz)
        dz *= 1.0 - z * z
        np.multiply(dc, z, out=di)
        np.multiply(dc, c_prev, out=df)
        d_if *= i_f
        d_if *= 1.0 - i_f
        dc_next = dc * i_f[..., 1, :] + di * p_i + df * p_f
        dh = dz @ w.R_z + di @ w.R_i + df @ w.R_f + do @ w.R_o
        np.multiply(d_all, x_t, out=xd)
        np.multiply(d_if, c_prev[..., None, :], out=cd_if)
        np.multiply(do, c_t, out=cd_o)
        grad_head += head.sum(axis=-2)
        grads.R += np.matmul(d_all.swapaxes(-1, -2), h_prev, out=grad_R_t)
    return (losses if lead else losses[0]), grads


class TestGateMajorAgainstRowLayout:
    # k: the stack's members, None for one network with no member axis. At 128
    # units and up the grid drops batches above 32 and stacks of five, which
    # would take seconds and add no new shape.
    @pytest.mark.parametrize("units,k", [(units, k) for units in (1, 2, 4, 8, 16, 32, 48, 64,
                                                                   128, 256)
                                         for k in (None, 1, 2, 5) if units < 128 or k != 5])
    def test_bit_identical_to_the_row_layout_step(self, units, k):
        lead = () if k is None else (k,)
        for batch in (1, 3, 7, 24, 31, 32) + ((127, 500) if units < 128 else ()):
            rng = np.random.default_rng([units, batch, k or 0])
            flat = np.stack([LstmWeights.initialize(units, 6, rng).flat for _ in range(k or 1)])
            weights = LstmWeights(flat if k else flat[0], units, 6)
            inputs, targets = rng.random((*lead, batch, 12)), rng.random((*lead, batch, 6))
            mask = (rng.random((*lead, batch, units)) >= 0.3) / 0.7
            for dropout in (None, mask):
                label = f"batch {batch}, mask {dropout is not None}"
                loss, grads = loss_and_gradients(weights, inputs, targets, dropout)
                want_loss, want = _row_loss_and_gradients(weights, inputs, targets, dropout)
                assert np.array(loss).tobytes() == np.array(want_loss).tobytes(), label
                for name in LstmWeights.NAMES:
                    assert grads[name].tobytes() == want[name].tobytes(), (label, name)
            assert (batch_forward(weights, inputs).tobytes()
                    == _row_batch_forward(weights, inputs).tobytes()), batch
            if k:  # every member reads one shared input block
                assert (batch_forward(weights, inputs[0]).tobytes()
                        == _row_batch_forward(weights, inputs[0]).tobytes()), batch

    def test_saturated_gates_raise_no_floating_point_error(self):
        # Pre-activations near +-800: every gate's exp(-|x|) underflows to 0.
        rng = np.random.default_rng(18)
        weights = LstmWeights.initialize(8, 6, rng)
        weights.W[...] = 800.0 * np.where(np.arange(32) % 3, 1.0, -1.0)
        inputs, targets = np.ones((5, 12)), rng.random((5, 6))
        mask = (rng.random((5, 8)) >= 0.3) / 0.7
        for dropout in (None, mask):
            want_loss, want = _row_loss_and_gradients(weights, inputs, targets, dropout)
            with np.errstate(all="raise"):
                loss, grads = loss_and_gradients(weights, inputs, targets, dropout)
                out = batch_forward(weights, inputs)
            assert loss == want_loss and grads.flat.tobytes() == want.flat.tobytes()
            assert np.all(np.isfinite(grads.flat)) and np.all(np.isfinite(out))


# --- stacks of same-width networks -------------------------------------------

def _stacked(members):
    return LstmWeights(np.stack([w.flat for w in members]), members[0].n_units,
                       members[0].horizon)


class TestStackedMembers:
    @pytest.mark.parametrize("batch", [1, 7, 31, 32])  # 7 and 31: ragged last batches of 32
    @pytest.mark.parametrize("units", [1, 4, 8, 64])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_a_stack_equals_its_members_separate_calls_bitwise(self, k, units, batch):
        rng = np.random.default_rng([k, units, batch])
        members = [LstmWeights.initialize(units, 6, rng) for _ in range(k)]
        inputs, targets = rng.random((k, batch, 12)), rng.random((k, batch, 6))
        rates = [0.3, 0.0, 0.5, 0.2, 0.0][:k]  # a rate-0 member takes no mask alone
        masks = [(rng.random((batch, units)) >= r) / (1.0 - r) if r else None for r in rates]
        stacked_mask = np.stack([np.ones((batch, units)) if m is None else m for m in masks])
        learning_rates = [0.01, 0.001, 0.03, 0.002, 0.005][:k]
        for mask, member_masks in ((None, [None] * k), (stacked_mask, masks)):
            stack = _stacked(members)
            losses, grads = loss_and_gradients(stack, inputs, targets, mask)
            outputs = batch_forward(stack, inputs)
            shared = batch_forward(stack, inputs[0])
            _Adam(stack, learning_rates).update(stack, grads)
            assert len(losses) == k
            for j, weights in enumerate(members):
                loss, member_grads = loss_and_gradients(weights, inputs[j], targets[j],
                                                        member_masks[j])
                assert losses[j] == loss
                assert grads.flat[j].tobytes() == member_grads.flat.tobytes()
                assert outputs[j].tobytes() == batch_forward(weights, inputs[j]).tobytes()
                assert shared[j].tobytes() == batch_forward(weights, inputs[0]).tobytes()
                single = LstmWeights(weights.flat.copy(), units, 6)
                _Adam(single, learning_rates[j]).update(single, member_grads)
                assert stack.flat[j].tobytes() == single.flat.tobytes()

    def test_stacked_train_returns_one_model_per_member(self):
        rng = np.random.default_rng(17)
        windows, val = _training_set(rng, n_days=2)
        models = [_model(seed=2, dropout=rate) for rate in (0.0, 0.2)]
        trained = train(models, windows, val, epochs=2)
        assert [m.hyperparameters for m in trained] == [m.hyperparameters for m in models]
        for model, got in zip(models, trained):
            assert got.weights.flat.tobytes() == train(model, windows, val,
                                                       epochs=2).weights.flat.tobytes()
            assert got.weights.flat.base is None  # it owns its row, not the whole stack

    @pytest.mark.parametrize("lead", [(), (1,), (2,), (5,)])
    def test_member_mse_matches_the_per_member_loop_bitwise(self, lead):
        from driftcast.forecaster import _member_mse

        rng = np.random.default_rng(18)
        for batch, horizon in [(1, 1), (7, 6), (32, 6), (599, 12), (130, 1)]:
            diff = rng.normal(size=(*lead, batch, horizon))
            loop = [float(np.mean(m)) for m in (diff * diff).reshape(-1, batch, horizon)]
            assert _member_mse(diff).tobytes() == np.array(loop).tobytes()
