"""From-scratch LSTM forecaster with batch-wise incremental weight updates.

One LSTM layer (with peephole connections on all three gates) unrolled over
a 12-step input window, followed by a dense layer emitting the 6-step
forecast. Training is full backpropagation through time with Adam on a
mean-squared-error loss over min-max normalized values. Incremental
updates resume from the stored weights on new windows only, so previously
acquired patterns survive each adaptation.

All randomness flows through seeds carried on the model, so identical
seeds give identical weights, and inference never draws randomness at all.
"""
from __future__ import annotations

import copy
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import (
    DivergedLoss,
    EmptyTrainingSet,
    InsufficientContext,
    NonFiniteInput,
)

DEFAULT_INPUT_LEN = 12
DEFAULT_HORIZON = 6

DEFAULT_BATCH_SIZE = 32
DEFAULT_PATIENCE = 5

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Stacked gate order in the packed layout: block input z, then the input,
# forget and output gates.
_GATES = ("z", "i", "f", "o")
# Order in which initialize() draws the tensors; it fixes same-seed weights.
_DRAW_GATES = ("i", "f", "o", "z")


@dataclass(frozen=True)
class Hyperparameters:
    learning_rate: float
    dropout_rate: float
    n_units: int

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # NaN fails both
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.n_units < 1:
            raise ValueError("n_units must be >= 1")


@dataclass(frozen=True)
class NormStats:
    """Min-max statistics fitted once on the training split."""

    vmin: float
    vmax: float

    def __post_init__(self):
        if not self.vmin <= self.vmax:
            raise ValueError("vmin must not exceed vmax")

    @classmethod
    def fit(cls, values) -> "NormStats":
        v = np.asarray(values, dtype=float)
        return cls(vmin=float(v.min()), vmax=float(v.max()))

    @property
    def span(self) -> float:
        return (self.vmax - self.vmin) or 1.0

    def normalize(self, values):
        return (np.asarray(values, dtype=float) - self.vmin) / self.span

    def denormalize(self, values):
        return np.asarray(values, dtype=float) * self.span + self.vmin


class LstmWeights:
    """All gate, peephole and output-layer parameters in one flat vector.

    `flat` holds, gates stacked in the order z, i, f, o: the input row `W`
    (4U), the bias `b` (4U), the peepholes `p` of i, f and o (3U), the
    recurrent matrix `R` (4U x U), then `W_out` (H x U) and `b_out` (H).
    W, b and p lead so that their gradients come from one batch sum per
    step. The 17 per-gate tensors (`W_z`, `R_i`, `p_o`, ...) are views into
    the same vector, so writing one of them writes `flat`. A stack of k
    same-width networks has a (k, size) `flat`, and views lead with k too.
    """

    GATE_TENSORS = [f"{kind}_{gate}" for gate in _DRAW_GATES for kind in ("W", "R", "b")]
    PEEPHOLES = ["p_i", "p_f", "p_o"]
    NAMES = GATE_TENSORS + PEEPHOLES + ["W_out", "b_out"]

    def __init__(self, flat: np.ndarray, n_units: int, horizon: int):
        """Weights viewing `flat` in place (no copy)."""
        size = _packed_size(n_units, horizon)
        if flat.dtype != np.float64 or flat.ndim not in (1, 2) or flat.shape[-1] != size:
            raise ValueError(f"expected {size} float64 parameters for "
                             f"{n_units} units and horizon {horizon}, got {flat.shape}")
        self.flat = flat
        lead, start = flat.shape[:-1], 0
        for name, shape in (("W", (4 * n_units,)), ("b", (4 * n_units,)),
                            ("p", (3 * n_units,)), ("R", (4 * n_units, n_units)),
                            ("W_out", (horizon, n_units)), ("b_out", (horizon,))):
            stop = start + math.prod(shape)
            setattr(self, name, flat[..., start:stop].reshape(lead + shape))
            start = stop
        for k, gate in enumerate(_GATES):
            rows = slice(k * n_units, (k + 1) * n_units)
            setattr(self, f"W_{gate}", self.W[..., rows])
            setattr(self, f"R_{gate}", self.R[..., rows, :])
            setattr(self, f"b_{gate}", self.b[..., rows])
        for k, name in enumerate(self.PEEPHOLES):
            setattr(self, name, self.p[..., k * n_units : (k + 1) * n_units])

    @classmethod
    def initialize(cls, n_units: int, horizon: int, rng: np.random.Generator,
                   ) -> "LstmWeights":
        # Uniform in [-1/sqrt(U), 1/sqrt(U)] for every tensor, drawn in NAMES order.
        bound = 1.0 / np.sqrt(n_units)
        weights = cls(np.empty(_packed_size(n_units, horizon)), n_units, horizon)
        for name in cls.NAMES:
            view = getattr(weights, name)
            view[...] = rng.uniform(-bound, bound, size=view.shape)
        return weights

    @property
    def n_units(self) -> int:
        return self.R.shape[-1]

    @property
    def horizon(self) -> int:
        return self.W_out.shape[-2]

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.NAMES}


def _packed_size(n_units: int, horizon: int) -> int:
    return 4 * n_units * (n_units + 2) + 3 * n_units + horizon * (n_units + 1)


@dataclass(frozen=True)
class ForecastModel:
    weights: LstmWeights
    hyperparameters: Hyperparameters
    norm_stats: NormStats
    input_len: int = DEFAULT_INPUT_LEN
    horizon: int = DEFAULT_HORIZON
    rng_seed: int = 0
    version: int = 0


def new_model(hyperparameters: Hyperparameters, norm_stats: NormStats,
              input_len: int = DEFAULT_INPUT_LEN, horizon: int = DEFAULT_HORIZON,
              rng_seed: int = 0) -> ForecastModel:
    rng = np.random.default_rng([rng_seed, 1])
    weights = LstmWeights.initialize(hyperparameters.n_units, horizon, rng)
    return ForecastModel(weights=weights, hyperparameters=hyperparameters,
                         norm_stats=norm_stats, input_len=input_len,
                         horizon=horizon, rng_seed=rng_seed, version=0)


# --- supervised windows -------------------------------------------------------

@dataclass(frozen=True)
class SupervisedWindow:
    input: np.ndarray   # input_len consecutive normalized readings
    target: np.ndarray  # the next horizon normalized readings


@dataclass(frozen=True, eq=False)
class SupervisedWindows(Sequence):
    """A block of windows: row k of `inputs` (n, input_len) and `targets`
    (n, horizon) is window k. From `build_windows` both are read-only views
    of the segment, so a block holds no per-window copies."""

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index):
        kind = SupervisedWindows if isinstance(index, slice) else SupervisedWindow
        return kind(self.inputs[index], self.targets[index])


def build_windows(series_segment, input_len: int = DEFAULT_INPUT_LEN,
                  horizon: int = DEFAULT_HORIZON) -> SupervisedWindows:
    """All maximal input/target windows over a contiguous segment."""
    if input_len < 1 or horizon < 1:
        raise ValueError("input_len and horizon must be >= 1")
    seg = np.asarray(series_segment, dtype=float).ravel()
    width = input_len + horizon
    rows = (np.lib.stride_tricks.sliding_window_view(seg, width) if seg.size >= width
            else np.empty((0, width)))
    return SupervisedWindows(rows[:, :input_len], rows[:, input_len:])


def stack_windows(windows: Sequence[SupervisedWindow]) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, targets): a block's own views, or a list of windows stacked."""
    if isinstance(windows, SupervisedWindows):
        return windows.inputs, windows.targets
    return np.stack([w.input for w in windows]), np.stack([w.target for w in windows])


# --- forward / backward -------------------------------------------------------

def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function of `x` into `out`, with `x` as scratch: the bits of
    1/(1+exp(-x)) for x >= 0 and of exp(x)/(1+exp(x)) below. The numerator
    exp(min(x, 0)) is 1 or exp(x), the denominator 1 + exp(-|x|). exp sees
    no positive argument, so it cannot overflow, and a term that rounds to
    zero is not reported as underflow."""
    np.minimum(x, 0.0, out=out)
    np.abs(x, out=x)
    np.negative(x, out=x)
    with np.errstate(under="ignore"):
        np.exp(x, out=x)
        np.exp(out, out=out)
    x += 1.0
    return np.divide(out, x, out=out)


def _forward(weights: LstmWeights, inputs: np.ndarray, keep_cache: bool):
    """Unroll the LSTM over (batch, steps) inputs, gate-major.

    The gate math runs on contiguous (batch, U) blocks: pre-activations and
    gate outputs are (4, batch, U) arrays in the order z, i, f, o. Each step
    writes x*W into them, takes the recurrent part of all four gates from one
    (batch, 4U) matmul and adds it. The input and forget gates peep at the
    previous cell state; the output gate peeps at the *updated* cell, so it
    is finished after the cell update. Each pre-activation is summed per
    element in the order ((x*W + h*R) + c*p) + b, the order of the per-gate
    formulas, so the values do not depend on the layout. A stack of networks
    adds a member axis after the gate axis; its inputs may share one block.

    With `keep_cache` the bias and peepholes are copied into batch-sized
    blocks and every step's h, c, gates and tanh(c) are kept for the backward
    pass; without it, one step's state is overwritten in place.
    """
    w = weights
    lead, units = w.flat.shape[:-1], w.n_units
    batch, steps = inputs.shape[-2:]
    block = (*lead, batch, units)
    b, p = (np.moveaxis(a.reshape(*lead, 1, -1, units), -2, 0) for a in (w.b, w.p))
    if keep_cache:
        b, p = (np.broadcast_to(a, a.shape[:-2] + (batch, units)).copy() for a in (b, p))
    W, R_T = w.W.reshape(*lead, 1, 4, units), w.R.swapaxes(-1, -2)
    xs = inputs[..., None, None]
    pre = np.empty((4, *block))
    pre_rows = np.moveaxis(pre, 0, -2)
    slot = int(keep_cache)  # step t reads h, c at t * slot and writes them at (t + 1) * slot
    hs, cs = np.zeros((2, steps * slot + 1, *block))
    kept = steps * slot or 1
    gates, tanh_cs = np.empty((kept, 4, *block)), np.empty((kept, *block))
    # Until written, a step's gate outputs and tanh_c serve as scratch: the
    # gate block holds the (batch, 4U) rows of the recurrent matmul.
    rows = gates.reshape(kept, *lead, batch, 4 * units)
    row_gates = np.moveaxis(rows.reshape(kept, *lead, batch, 4, units), -2, 1)
    for t in range(steps):
        k = t * slot
        h, c, h_new, c_new = hs[k], cs[k], hs[k + slot], cs[k + slot]
        g, tanh_c = gates[k], tanh_cs[k]
        np.multiply(xs[..., t, :, :], W, out=pre_rows)
        np.matmul(h, R_T, out=rows[k])
        pre += row_gates[k]
        pre[1:3] += np.multiply(c, p[:2], out=g[1:3])
        pre[:3] += b[:3]
        np.tanh(pre[0], out=g[0])
        _sigmoid(pre[1:3], out=g[1:3])
        np.multiply(c, g[2], out=c_new)  # c*f + z*i: the same sum as z*i + c*f
        c_new += np.multiply(g[0], g[1], out=tanh_c)
        pre[3] += np.multiply(c_new, p[2], out=g[3])
        pre[3] += b[3]
        _sigmoid(pre[3], out=g[3])
        np.tanh(c_new, out=tanh_c)
        np.multiply(g[3], tanh_c, out=h_new)
    return h_new, ((hs, cs, gates, tanh_cs, p) if keep_cache else None)


def _member_mse(diff: np.ndarray) -> np.ndarray:
    """Each member's mean squared error, reduced over its own contiguous row."""
    return (diff * diff).reshape(-1, diff.shape[-2] * diff.shape[-1]).mean(axis=1)


def batch_forward(weights: LstmWeights, inputs: np.ndarray) -> np.ndarray:
    """Predictions (batch, horizon) in normalized space; no side effects. A
    stack gives (members, batch, horizon) from shared or per-member inputs."""
    h, _ = _forward(weights, inputs, keep_cache=False)
    return h @ weights.W_out.swapaxes(-1, -2) + weights.b_out[..., None, :]


def loss_and_gradients(weights: LstmWeights, inputs: np.ndarray,
                       targets: np.ndarray,
                       dropout_mask: np.ndarray | None = None,
                       ) -> tuple[float, LstmWeights]:
    """MSE loss and its exact gradient for every parameter (full BPTT).

    The gradient is packed like the weights; `grads[name]` reads one tensor.
    For a stack, arrays lead with the member axis and each member's loss
    and gradient are bit for bit those of its own call.
    """
    w = weights
    lead, units = w.flat.shape[:-1], w.n_units
    batch, steps = inputs.shape[-2:]
    h_final, (hs, cs, gates, tanh_cs, p) = _forward(w, inputs, keep_cache=True)
    h_drop = h_final if dropout_mask is None else h_final * dropout_mask
    diff = h_drop @ w.W_out.swapaxes(-1, -2) + w.b_out[..., None, :] - targets
    losses = _member_mse(diff)

    grads = LstmWeights(np.zeros_like(w.flat), units, w.horizon)
    d_out = 2.0 * diff / (batch * w.horizon)
    grads.W_out[...] = d_out.swapaxes(-1, -2) @ h_drop
    grads.b_out[...] = d_out.sum(axis=-2)
    dh = d_out @ w.W_out
    if dropout_mask is not None:
        dh = dh * dropout_mask
    dc_next = np.zeros((*lead, batch, units))
    p_i, p_f, p_o = p

    # Eleven (batch, U) blocks x*d | d | c_prev*(d_i, d_f) | c*d_o, in the
    # order of the head W | b | p of the flat vector; d holds the gate deltas
    # dz, di, df, do. Each step copies them into one row per window, so one
    # batch sum per step accumulates all three gradients.
    blocks = np.empty((11, *lead, batch, units))
    xd, d, d_if, cd_if, cd_o = blocks[:4], blocks[4:8], blocks[5:7], blocks[8:10], blocks[10]
    dz, di, df, do = d
    head = np.empty((*lead, batch, 11 * units))
    head_blocks = np.moveaxis(head.reshape(*lead, batch, 11, units), -2, 0)
    d_all = head[..., 4 * units : 8 * units]
    grad_head = grads.flat[..., : 11 * units]
    grad_R_t = np.empty_like(w.R)
    xs = np.moveaxis(inputs, -1, 0)[..., None]
    for t in reversed(range(steps)):
        h_prev, c_prev, c_t, tanh_c = hs[t], cs[t], cs[t + 1], tanh_cs[t]
        (z, i, f, o), i_f = gates[t], gates[t, 1:3]
        np.multiply(dh, tanh_c, out=do)
        do *= o
        do *= 1.0 - o
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next + do * p_o
        np.multiply(dc, i, out=dz)
        dz *= 1.0 - z * z
        np.multiply(dc, z, out=di)
        np.multiply(dc, c_prev, out=df)
        d_if *= i_f
        d_if *= 1.0 - i_f
        dc_next = dc * f + di * p_i + df * p_f
        # Four products added in gate order: one (4U)-deep matmul would
        # reorder the sum.
        dh = dz @ w.R_z + di @ w.R_i + df @ w.R_f + do @ w.R_o

        np.multiply(d, xs[t], out=xd)
        np.multiply(d_if, c_prev, out=cd_if)
        np.multiply(do, c_t, out=cd_o)
        np.copyto(head_blocks, blocks)
        grad_head += head.sum(axis=-2)
        grads.R += np.matmul(d_all.swapaxes(-1, -2), h_prev, out=grad_R_t)

    return (losses if lead else losses[0]), grads


# --- training -------------------------------------------------------------

class _Adam:
    """Adam over the flat parameter vector: one vectorised update per step,
    written through preallocated buffers so a step allocates nothing. The
    members of a stack share the step count; each has its own learning rate."""

    def __init__(self, weights: LstmWeights, learning_rate: float | Sequence[float]):
        self.lr = np.asarray(learning_rate, dtype=float)[..., None]
        self.step = 0
        self.m = np.zeros_like(weights.flat)
        self.v = np.zeros_like(weights.flat)
        self._a = np.empty_like(weights.flat)
        self._b = np.empty_like(weights.flat)

    def select(self, rows: list[int]) -> "_Adam":
        """A copy of the state of the stack's members `rows`."""
        adam = copy.copy(self)
        adam.__dict__.update((name, value[rows]) for name, value in vars(self).items()
                             if name != "step")
        return adam

    def update(self, weights: LstmWeights, grads: LstmWeights) -> None:
        self.step += 1
        bias1 = 1.0 - _ADAM_BETA1 ** self.step
        bias2 = 1.0 - _ADAM_BETA2 ** self.step
        g, m, v, a, b = grads.flat, self.m, self.v, self._a, self._b
        # m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g*g
        m *= _ADAM_BETA1
        m += np.multiply(g, 1 - _ADAM_BETA1, out=a)
        v *= _ADAM_BETA2
        np.multiply(g, 1 - _ADAM_BETA2, out=a)
        a *= g
        v += a
        # weights -= lr*(m/bias1) / (sqrt(v/bias2) + eps)
        np.divide(m, bias1, out=a)
        a *= self.lr
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b
        weights.flat -= a


def _mse(weights: LstmWeights, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return _member_mse(batch_forward(weights, inputs) - targets)


def _finite(losses: np.ndarray, kind: str) -> np.ndarray:
    if not np.all(np.isfinite(losses)):
        raise DivergedLoss(f"{kind} loss became {min(losses, key=np.isfinite)}")
    return losses


@dataclass
class _TrainingRun:
    """Mini-batch Adam on a stack of same-width networks that can stop after
    any epoch and resume as if it never stopped: the weights, Adam's state,
    and each member's own rng of batch orders and dropout masks."""

    weights: LstmWeights  # stacked: `flat` is (members, size)
    adam: _Adam
    rngs: list[np.random.Generator]
    hps: list[Hyperparameters]
    epochs_done: int = 0

    @classmethod
    def start(cls, weights: Sequence[LstmWeights], hps: Sequence[Hyperparameters],
              rngs: Sequence[np.random.Generator]) -> "_TrainingRun":
        work = LstmWeights(np.stack([w.flat for w in weights]), weights[0].n_units,
                           weights[0].horizon)
        return cls(work, _Adam(work, [hp.learning_rate for hp in hps]), list(rngs), list(hps))

    def select(self, rows: list[int]) -> "_TrainingRun":
        """A run of the members `rows` that shares no state with this one."""
        w = self.weights
        return _TrainingRun(LstmWeights(w.flat[rows], w.n_units, w.horizon),
                            self.adam.select(rows), [copy.deepcopy(self.rngs[j]) for j in rows],
                            [self.hps[j] for j in rows], self.epochs_done)


def _epoch(run: _TrainingRun, inputs: np.ndarray, targets: np.ndarray,
           batch_size: int) -> None:
    """One epoch of mini-batch Adam on the stack `run`: each member draws its own
    batch order and dropout masks, so it gets the bits of its own separate run."""
    orders = np.stack([rng.permutation(inputs.shape[0]) for rng in run.rngs])
    for start in range(0, inputs.shape[0], batch_size):
        batch_idx = orders[:, start : start + batch_size]
        shape, mask = (batch_idx.shape[1], run.weights.n_units), None
        if any(hp.dropout_rate for hp in run.hps):  # a rate-0 member draws no mask
            mask = np.stack([(rng.random(shape) >= hp.dropout_rate) / (1.0 - hp.dropout_rate)
                             if hp.dropout_rate else np.ones(shape)
                             for rng, hp in zip(run.rngs, run.hps)])
        losses, grads = loss_and_gradients(run.weights, inputs[batch_idx],
                                           targets[batch_idx], mask)
        _finite(losses, "training")
        run.adam.update(run.weights, grads)
    run.epochs_done += 1


def _members(flat: np.ndarray, n_units: int, horizon: int) -> list[LstmWeights]:
    """Each row of a stack's `flat` as its own weights. A stack's rows are copied,
    so that no member keeps the whole stack alive."""
    return [LstmWeights(f.copy() if len(flat) > 1 else f, n_units, horizon) for f in flat]


def train(model: ForecastModel | Sequence[ForecastModel],
          windows: Sequence[SupervisedWindow],
          val_windows: Sequence[SupervisedWindow], epochs: int,
          batch_size: int = DEFAULT_BATCH_SIZE,
          patience: int | None = DEFAULT_PATIENCE):
    """Initial training run; keeps the best-validation weights seen, and a member
    leaves the stack after `patience` stale epochs. Without validation windows it
    keeps the final weights. A list of same-width models trains as one stack,
    each with the bits of its own call."""
    if not windows:
        raise EmptyTrainingSet("no supervised windows to train on")
    models = [model] if isinstance(model, ForecastModel) else list(model)
    inputs, targets = stack_windows(windows)
    run = _TrainingRun.start([m.weights for m in models], [m.hyperparameters for m in models],
                             [np.random.default_rng([m.rng_seed, 2, m.version]) for m in models])
    if val_windows:
        val, rows = stack_windows(val_windows), list(range(len(models)))  # rows[r]: member at row r
        best, best_loss, stale = run.weights.flat.copy(), _mse(run.weights, *val), [0] * len(rows)
        while rows and run.epochs_done < epochs:
            _epoch(run, inputs, targets, batch_size)
            losses = _finite(_mse(run.weights, *val), "validation")
            for row, (member, loss) in enumerate(zip(rows, losses)):
                if loss < best_loss[member]:
                    best[member], best_loss[member], stale[member] = run.weights.flat[row], loss, 0
                else:
                    stale[member] += 1
            stay = [row for row, member in enumerate(rows)
                    if patience is None or stale[member] <= patience]
            if len(stay) < len(rows):
                run, rows = run.select(stay), [rows[row] for row in stay]
    else:
        while run.epochs_done < epochs:
            _epoch(run, inputs, targets, batch_size)
        best = run.weights.flat
    weights = _members(best, run.weights.n_units, run.weights.horizon)
    trained = [replace(m, weights=w) for m, w in zip(models, weights)]
    return trained[0] if isinstance(model, ForecastModel) else trained


def incremental_update(model: ForecastModel,
                       new_windows: Sequence[SupervisedWindow],
                       tuned: Hyperparameters | Sequence[Hyperparameters],
                       epochs: int = 10,
                       batch_size: int = DEFAULT_BATCH_SIZE,
                       keep_run_after: int | None = None,
                       resume: _TrainingRun | None = None):
    """Continue training from the stored weights on new windows only.

    The unit count is structural and must match the model; only the tuned
    learning and dropout rates take effect. An empty batch is a no-op that
    returns the model unchanged (version included).

    With `keep_run_after=m` it returns (model, run): the training run after
    epoch m (None if never reached). Passing it as `resume` with the same
    model, windows and rates trains only the epochs after m, with the bits of
    one uninterrupted call of `epochs` epochs; resuming consumes the run.
    A list of tuned rates trains one stack and returns lists, each member
    with the bits of its own call.
    """
    hps = [tuned] if isinstance(tuned, Hyperparameters) else list(tuned)
    models, runs = [model] * len(hps), [None] * len(hps)
    if new_windows:
        if any(hp.n_units != model.hyperparameters.n_units for hp in hps):
            raise ValueError("n_units is structural; incremental updates cannot change it")
        inputs, targets = stack_windows(new_windows)
        if resume is not None and (resume.hps != hps or resume.epochs_done > epochs):
            raise ValueError("a resumed run must keep its rates and not be past `epochs`")
        run = resume or _TrainingRun.start(
            [model.weights] * len(hps), hps,
            [np.random.default_rng([model.rng_seed, 2, model.version + 1]) for _ in hps])
        while run.epochs_done < epochs:
            _epoch(run, inputs, targets, batch_size)
            if run.epochs_done == keep_run_after:  # each member's own run, from here
                runs = [run.select([row]) for row in range(len(hps))]
        models = [replace(model, weights=w, hyperparameters=hp, version=model.version + 1)
                  for w, hp in zip(_members(run.weights.flat, run.weights.n_units,
                                            run.weights.horizon), hps)]
    if isinstance(tuned, Hyperparameters):
        models, runs = models[0], runs[0]
    return models if keep_run_after is None else (models, runs)


# --- day-level prediction ---------------------------------------------------

def predict_day(model: ForecastModel, day_context, day_readings) -> list[np.ndarray]:
    """24 hourly forecasts for one day, each model.horizon steps, in kWh.

    For each hour, the input is the `input_len` readings immediately
    preceding that hour (actual meter data, which at prediction time is
    the past), so no forecast ever sees anything at or after its own hour.
    """
    context = np.asarray(day_context, dtype=float).ravel()
    readings = np.asarray(day_readings, dtype=float).ravel()
    if readings.size % 24 != 0:
        raise ValueError(f"day length {readings.size} is not divisible into 24 hours")
    steps_per_hour = readings.size // 24
    if steps_per_hour != model.horizon:
        raise ValueError(f"model horizon {model.horizon} does not cover an hour "
                         f"of {steps_per_hour} readings")
    if context.size < model.input_len:
        raise InsufficientContext(f"need {model.input_len} context readings, "
                                  f"got {context.size}")
    if not (np.all(np.isfinite(context)) and np.all(np.isfinite(readings))):
        raise NonFiniteInput("context or day readings contain NaN or infinity")

    # Window k ends just before reading k of the day; hour h reads window h * steps_per_hour.
    normalized = model.norm_stats.normalize(
        np.concatenate([context[context.size - model.input_len:], readings]))
    rows = np.lib.stride_tricks.sliding_window_view(normalized, model.input_len)
    predictions = batch_forward(model.weights, rows[: readings.size : steps_per_hour])
    return [model.norm_stats.denormalize(row) for row in predictions]


# --- checkpointing ----------------------------------------------------------

_CHECKPOINT_VERSION = 2


def save_model(model: ForecastModel, path) -> None:
    """Dump the packed parameter vector plus metadata; round-trips bit-exactly.

    The metadata holds the hyperparameters' and norm stats' fields and the
    model's own integer fields, all under their field names."""
    meta = {"checkpoint_version": _CHECKPOINT_VERSION, **asdict(model.hyperparameters),
            **asdict(model.norm_stats),
            **{f.name: getattr(model, f.name) for f in fields(model) if f.type == "int"}}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             weights=model.weights.flat)


def _take(record, meta: dict):
    """The `record` dataclass built from its fields, popped from `meta`."""
    return record(**{f.name: meta.pop(f.name) for f in fields(record)})


def load_model(path) -> ForecastModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        version = meta.pop("checkpoint_version")
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        weights = LstmWeights(data["weights"], meta["n_units"], meta["horizon"])
    hyperparameters, norm_stats = _take(Hyperparameters, meta), _take(NormStats, meta)
    return ForecastModel(weights=weights, hyperparameters=hyperparameters,
                         norm_stats=norm_stats, **meta)
