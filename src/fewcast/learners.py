"""Differentiable base forecasters over flat parameter vectors.

Three families, all mapping a lag window x (length w) to a scalar forecast:

  linear     y = w.x + b
  mlp        y = v.tanh(W1 x + b1) + b2           (one hidden layer)
  recurrent  gated recurrent cell fed x as a scalar sequence, affine readout
             of the final hidden state

Parameters live in a single flat float64 vector with a fixed layout per
LearnerSpec, so the meta-level code can treat every family identically.
Gradients are exact analytic reverse-mode derivatives of the summed squared
error, written out by hand (no autodiff framework). The linear and mlp passes
write each block straight into one (..., p) gradient buffer.

The recurrent pass caches time-major chunks of CHUNK steps, (n, ..., batch, w):
the rows [x_t, h_{t-1}, 1], the gates [z, r] and the candidate. Its backward
overwrites gates and candidate with their pre-activation gradients and takes a
chunk's U, w and b gradients in one contraction over its rows and [x_t, r*h, 1].

The five optimizers act on (theta, grad) pairs and are pure: they return an
updated vector and an advanced state instead of mutating anything, each
built with in-place operations on fresh buffers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, Windows, pairs_to_arrays
from .rng import spawn

FAMILIES = ("linear", "mlp", "recurrent")
OPTIMIZERS = ("sgd", "adam", "rmsprop", "adadelta", "adagrad")
PARAMS_FORMAT_VERSION = 1

# Fixed optimizer constants (only the learning rate is ever searched).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
RMSPROP_RHO, RMSPROP_EPS = 0.9, 1e-8
ADADELTA_RHO, ADADELTA_EPS = 0.95, 1e-6
ADAGRAD_EPS = 1e-10
CHUNK = 8  # recurrent time steps per cache buffer; the backward contracts each chunk's weight gradients at once


class NumericError(ArithmeticError):
    """Non-finite values encountered during optimization."""


NUMERIC_FAILURES = (NumericError, FloatingPointError, OverflowError)  # a reward-0 evaluation; exit 4 in the CLI


@dataclass(frozen=True)
class LearnerSpec:
    """Family plus shape information; fixes the flat parameter layout."""

    family: str
    input_dim: int
    width: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")


def n_params(spec: LearnerSpec) -> int:
    return sum(size for size, _ in _init_plan(spec))


def init_params(spec: LearnerSpec, seed: int) -> np.ndarray:
    """Weights uniform in +-1/sqrt(fan_in), biases zero; deterministic per seed."""
    rng = spawn(seed, "init", spec.family, spec.input_dim, spec.width)
    chunks = []
    for size, fan_in in _init_plan(spec):
        if fan_in is None:
            chunks.append(np.zeros(size))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            chunks.append(rng.uniform(-bound, bound, size))
    return np.concatenate(chunks)


def _init_plan(spec: LearnerSpec) -> list[tuple[int, int | None]]:
    # (size, fan_in) per layout chunk; fan_in None marks a zero-initialized bias.
    d, h = spec.input_dim, spec.width
    if spec.family == "linear":
        return [(d, d), (1, None)]
    if spec.family == "mlp":
        return [(h * d, d), (h, None), (h, h), (1, None)]
    gate = [(h, h + 1), (h * h, h + 1), (h, None)]  # input weights, recurrent weights, bias
    return gate * 3 + [(h, h), (1, None)]


def _unpack_mlp(spec, theta):
    # theta (p,) or a task stack (K, p); every block keeps the leading axes
    d, h = spec.input_dim, spec.width
    W1 = theta[..., : h * d].reshape(theta.shape[:-1] + (h, d))
    b1, v = theta[..., h * d : h * d + h], theta[..., h * d + h : h * d + 2 * h]
    return W1, b1, v, theta[..., -1:]


def _gate_blocks(spec, theta):
    # Each gate's (w, U, b) is one contiguous (h+2, h) block Wz, Wr, Wh of the layout: the weights of an augmented row
    # [x_t, h_{t-1}, 1]. Returns -[Wz Wr] copied into one (h+2, 2h) block, whose gemm gives both gates' inputs -a for
    # exp(-a), then views of Wh and of the readout row v (..., 1, h) and c.
    h = spec.width
    Wz, Wr, Wh = (theta[..., i * (h + 2) * h : (i + 1) * (h + 2) * h].reshape(theta.shape[:-1] + (h + 2, h))
                  for i in range(3))
    return -np.concatenate([Wz, Wr], axis=-1), Wh, theta[..., None, -h - 1 : -1], theta[..., -1:]


def _check_theta(spec, theta):
    if theta.shape != (n_params(spec),):
        raise ValueError(f"parameter vector has shape {theta.shape}; spec requires ({n_params(spec)},)")


def _check_inputs(spec, theta, X):
    _check_theta(spec, theta)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"inputs have shape {X.shape}; spec requires (n, {spec.input_dim})")


# Every pass takes theta (p,) against X (n, w), or a task stack: theta (K, p),
# or (1, p) broadcast, against X (K, n, w). Each task's matmul is then the one
# a single task runs, so a stacked pass gives each task's bits unchanged.


def _forward_linear(spec, theta, X):
    return (X @ theta[..., :-1, None])[..., 0] + theta[..., -1:]


def _forward_mlp(spec, theta, X, want_cache=False):
    W1, b1, v, b2 = _unpack_mlp(spec, theta)
    hidden = X @ W1.swapaxes(-1, -2)  # the one (batch, width) buffer; the bias and tanh run in place
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    yhat = (hidden @ v[..., None])[..., 0] + b2
    return (yhat, hidden) if want_cache else yhat


def _forward_recurrent(spec, theta, X):
    Nzr, Wh, v, c = _gate_blocks(spec, theta)
    state, _ = _recurrent_steps(Nzr, Wh, X, keep=False)
    return (state @ v.swapaxes(-1, -2))[..., 0] + c


def _recurrent_steps(Nzr, Wh, X, keep):
    """Run the cell over the T columns of X; return the final state and the (inputs, gates, cands) buffers
    of each CHUNK of time steps: a new triple per chunk if ``keep`` is set for the backward, else one reused."""
    h, T = Wh.shape[-1], X.shape[-1]
    state, chunks = np.zeros(X.shape[:-1] + (h,)), []
    with np.errstate(over="ignore"):  # exp(-a) overflows for a very negative gate input a: the sigmoid is 0
        for t0 in range(0, T, CHUNK):
            n = min(CHUNK, T - t0)
            if keep or not chunks or len(chunks[-1][0]) != n:
                chunks.append(tuple(np.empty((n,) + X.shape[:-1] + (width,)) for width in (h + 2, 2 * h, h)))
            inputs, gates, cands = chunks[-1]
            inputs[..., 0], inputs[..., -1] = np.moveaxis(X[..., t0 : t0 + n], -1, 0), 1.0  # rows [x_t, h_{t-1}, 1]
            inputs[0, ..., 1:-1] = state
            for i in range(n):
                prev = inputs[i, ..., 1:-1]  # h_{t-1}
                zr = np.matmul(inputs[i], Nzr, out=gates[i])
                np.exp(zr, out=zr)
                zr += 1.0
                np.reciprocal(zr, out=zr)
                rh = inputs[i].copy()  # the rows [x_t, r * h_{t-1}, 1], kept for one step only
                rh[..., 1:-1] *= zr[..., h:]
                hbar = np.matmul(rh, Wh, out=cands[i])
                np.tanh(hbar, out=hbar)
                state = np.add(prev, (hbar - prev) * zr[..., :h], out=inputs[i + 1, ..., 1:-1] if i + 1 < n else None)
    return state, chunks


def _task_rows(buf):
    # a time-major (n, ..., batch, w) chunk as (..., n * batch, w) rows per task, contiguous as one task's are: a copy
    # for a task stack (OpenBLAS rounds a strided operand differently, e.g. at batch 1)
    return np.ascontiguousarray(np.moveaxis(buf, 0, -3).reshape(buf.shape[1:-2] + (-1, buf.shape[-1])))


_FORWARDS = {"linear": _forward_linear, "mlp": _forward_mlp, "recurrent": _forward_recurrent}


def forward(spec: LearnerSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Batched forecasts for X of shape (n, input_dim)."""
    _check_inputs(spec, theta, X)
    return _FORWARDS[spec.family](spec, theta, X)


def loss(spec: LearnerSpec, theta: np.ndarray, data: Windows, average: bool = False) -> float:
    """Squared-error loss: summed by default, averaged when ``average`` is set.

    The summed form feeds meta-training; the averaged form is the reported
    empirical risk.
    """
    X, y = pairs_to_arrays(data)
    residuals = forward(spec, theta, X) - y
    return float(np.mean(residuals**2)) if average else float(residuals @ residuals)


def gradient(spec: LearnerSpec, theta: np.ndarray, data: Windows, average: bool = False) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to the flat parameters."""
    X, y = pairs_to_arrays(data)
    _check_inputs(spec, theta, X)
    grad = RESIDUALS_AND_GRADIENTS[spec.family](spec, theta, X, y)[1]
    return grad / len(y) if average else grad


# Each _grad_<family> returns the residuals (forecast - y) of its forward
# pass along with the gradient: the meta step reads its query loss from them.


def _grad_linear(spec, theta, X, y):
    residuals = _forward_linear(spec, theta, X) - y
    dy, grad = 2.0 * residuals, np.empty(residuals.shape[:-1] + (spec.input_dim + 1,))
    np.matmul(dy[..., None, :], X, out=grad[..., None, :-1])
    np.add.reduce(dy, axis=-1, out=grad[..., -1])
    return residuals, grad


def _grad_mlp(spec, theta, X, y):
    d, h, v = spec.input_dim, spec.width, _unpack_mlp(spec, theta)[2]
    yhat, hidden = _forward_mlp(spec, theta, X, want_cache=True)
    residuals = yhat - y
    dy, grad = 2.0 * residuals, np.empty(residuals.shape[:-1] + (n_params(spec),))
    np.matmul(hidden.swapaxes(-1, -2), dy[..., None], out=grad[..., h * d + h : -1, None])  # dv
    np.add.reduce(dy, axis=-1, out=grad[..., -1])  # db2
    # (dy v)(1 - h^2), as the out-of-place form rounds it, with hidden
    # overwritten by 1 - h^2 instead of two more (batch, width) temporaries
    da = dy[..., :, None] * v[..., None, :]
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    da *= hidden
    np.matmul(da.swapaxes(-1, -2), X, out=grad[..., : h * d].reshape(grad.shape[:-1] + (h, d)))  # dW1
    np.add.reduce(da, axis=-2, out=grad[..., h * d : h * d + h])  # db1
    return residuals, grad


def _grad_recurrent(spec, theta, X, y):
    Nzr, Wh, v, c = _gate_blocks(spec, theta)
    state, chunks = _recurrent_steps(Nzr, Wh, X, keep=True)
    residuals = (state @ v.swapaxes(-1, -2))[..., 0] + c - y
    dy, h = 2.0 * residuals, spec.width
    NzrT, UhT = (np.ascontiguousarray(W[..., 1:-1, :].swapaxes(-1, -2)) for W in (Nzr, Wh))  # once, not per step
    del Nzr

    dh = dy[..., :, None] * v
    d_zr, rh_rows = np.empty(dh.shape[:-1] + (2 * h,)), np.empty((min(CHUNK, X.shape[-1]),) + X.shape[:-1] + (h + 2,))
    g_zr, g_h = np.zeros(X.shape[:-2] + (h + 2, 2 * h)), np.zeros(X.shape[:-2] + (h + 2, h))
    while chunks:  # latest first; each chunk's buffers are freed once its gradients are in
        inputs, gates, cands = chunks.pop()
        rh = rh_rows[: len(inputs)]  # the rows [x_t, r * h_{t-1}, 1], rebuilt for the contraction
        np.copyto(rh, inputs)
        rh[..., 1:-1] *= gates[..., h:]
        for i in range(len(inputs) - 1, -1, -1):
            # the gates and candidate of the chunk's step i are overwritten by their pre-activation gradients
            h_prev, zr, hbar = inputs[i, ..., 1:-1], gates[i], cands[i]
            np.multiply(hbar - h_prev, dh, out=d_zr[..., :h])
            dhbar = dh * zr[..., :h]
            dh -= dhbar
            np.square(hbar, out=hbar)
            np.subtract(1.0, hbar, out=hbar)
            hbar *= dhbar
            drh = hbar @ UhT
            np.multiply(drh, h_prev, out=d_zr[..., h:])
            dh += drh * zr[..., h:]
            d_zr *= zr
            np.multiply(1.0 - zr, d_zr, out=zr)
            dh -= zr @ NzrT
        # one contraction over the chunk's n * batch rows gives its U, w and b gradients
        g_zr += _task_rows(inputs).swapaxes(-1, -2) @ _task_rows(gates)
        g_h += _task_rows(rh).swapaxes(-1, -2) @ _task_rows(cands)

    g_v = (state.swapaxes(-1, -2) @ dy[..., None])[..., 0]
    blocks = (g_zr[..., :h], g_zr[..., h:], g_h, g_v, dy.sum(axis=-1, keepdims=True))
    return residuals, np.concatenate([g.reshape(X.shape[:-2] + (-1,)) for g in blocks], axis=-1)


RESIDUALS_AND_GRADIENTS = {"linear": _grad_linear, "mlp": _grad_mlp, "recurrent": _grad_recurrent}


# --- optimizers -----------------------------------------------------------


@dataclass(frozen=True)
class OptimizerState:
    """Per-kind accumulator vectors plus a step counter; never mutated in place."""

    kind: str
    step: int
    acc: tuple[np.ndarray, ...]


_N_ACCUMULATORS = {"sgd": 0, "adam": 2, "rmsprop": 1, "adadelta": 2, "adagrad": 1}


def init_optimizer(kind: str, size: int) -> OptimizerState:
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}; expected one of {OPTIMIZERS}")
    return OptimizerState(kind=kind, step=0, acc=tuple(np.zeros(size) for _ in range(_N_ACCUMULATORS[kind])))


def optimizer_step(
    state: OptimizerState, theta: np.ndarray, grad: np.ndarray, lr: float
) -> tuple[np.ndarray, OptimizerState]:
    """One update of ``theta`` along ``grad``; returns the new vector and state."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if theta.shape != grad.shape:
        raise ValueError(f"theta shape {theta.shape} != grad shape {grad.shape}")
    for a in state.acc:
        if a.shape != theta.shape:
            raise ValueError(f"optimizer state shape {a.shape} != theta shape {theta.shape}")
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient at coordinate {int(np.flatnonzero(~np.isfinite(grad))[0])}")

    # Each update is its out-of-place expression in the same operation order, built in fresh buffers: ``new`` is
    # the returned vector, ``sq`` scratch (grad**2 is np.square(grad)).
    t, kind = state.step + 1, state.kind
    if kind == "sgd":
        new, acc = np.multiply(lr, grad), ()
    elif kind == "adam":  # theta - lr * (m / (1 - b1**t)) / (sqrt(s / (1 - b2**t)) + eps)
        m, s = np.multiply(ADAM_BETA1, state.acc[0]), np.multiply(ADAM_BETA2, state.acc[1])
        sq = np.multiply(1.0 - ADAM_BETA1, grad)
        m += sq
        np.square(grad, out=sq)
        sq *= 1.0 - ADAM_BETA2
        s += sq
        new, acc = np.divide(m, 1.0 - ADAM_BETA1**t), (m, s)
        np.divide(s, 1.0 - ADAM_BETA2**t, out=sq)
        np.sqrt(sq, out=sq)
        sq += ADAM_EPS
        new *= lr
        new /= sq
    elif kind == "adadelta":  # delta = -sqrt(d + eps) / sqrt(s + eps) * grad; theta + lr * delta
        s, sq = np.multiply(ADADELTA_RHO, state.acc[0]), np.square(grad)
        sq *= 1.0 - ADADELTA_RHO
        s += sq
        new = np.add(state.acc[1], ADADELTA_EPS)
        np.sqrt(new, out=new)
        np.negative(new, out=new)
        np.add(s, ADADELTA_EPS, out=sq)
        np.sqrt(sq, out=sq)
        new /= sq
        new *= grad
        d = np.multiply(ADADELTA_RHO, state.acc[1])
        np.square(new, out=sq)
        sq *= 1.0 - ADADELTA_RHO
        d += sq
        new *= lr
        return np.add(theta, new, out=new), OptimizerState(kind, t, (s, d))
    else:  # rmsprop and adagrad: theta - lr * grad / (sqrt(s) + eps)
        sq = np.square(grad)
        if kind == "rmsprop":
            s, eps = np.multiply(RMSPROP_RHO, state.acc[0]), RMSPROP_EPS
            sq *= 1.0 - RMSPROP_RHO
            s += sq
        else:
            s, eps = np.add(state.acc[0], sq), ADAGRAD_EPS
        new, acc = np.multiply(lr, grad), (s,)
        np.sqrt(s, out=sq)
        sq += eps
        new /= sq
    return np.subtract(theta, new, out=new), OptimizerState(kind, t, acc)


# --- checkpoint serialization ---------------------------------------------


def dump_params(spec: LearnerSpec, theta: np.ndarray, target_norm: tuple[float, float] | None = None) -> bytes:
    """Flat little-endian float64 blob behind a one-line JSON header, whose ``extra`` block records the target's
    scaler (lo, hi), if any, and the window the parameters take."""
    header = {
        "format_version": PARAMS_FORMAT_VERSION,
        "family": spec.family,
        "input_dim": spec.input_dim,
        "width": spec.width,
        "n_params": int(theta.size),
        "extra": {"target_norm": None if target_norm is None else list(target_norm), "window": spec.input_dim},
    }
    blob = np.ascontiguousarray(theta, dtype="<f8").tobytes()
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + blob


def load_params(path) -> tuple[LearnerSpec, np.ndarray, tuple[float, float] | None]:
    """The spec, finite parameters and target scaler of a :func:`dump_params`
    file; any ``extra`` window must equal the input dimension, and any
    target_norm be empty or two finite numbers. An empty, null or absent
    target_norm loads as ``None``."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise DataError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # the last for deeply nested arrays
        raise DataError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("extra", {}), dict):
        raise DataError(f"{path}: header or its 'extra' field is not a JSON object")
    if header.get("format_version") != PARAMS_FORMAT_VERSION:
        raise DataError(f"{path}: format_version {header.get('format_version')!r} != {PARAMS_FORMAT_VERSION}")
    try:
        family, input_dim, width, declared = (header[key] for key in ("family", "input_dim", "width", "n_params"))
    except KeyError as exc:
        raise DataError(f"{path}: header lacks {exc}") from None
    if not all(type(value) is int for value in (input_dim, width, declared)):
        raise DataError(f"{path}: input_dim, width and n_params must be integers")
    try:
        spec = LearnerSpec(family=family, input_dim=input_dim, width=width)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    payload = raw[newline + 1 :]
    if len(payload) % 8:
        raise DataError(f"{path}: payload of {len(payload)} bytes is not a whole number of float64 values")
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if theta.size != declared or theta.size != n_params(spec):
        raise DataError(f"{path}: payload holds {theta.size} values; header/spec require {n_params(spec)}")
    if not np.isfinite(theta).all():
        raise DataError(f"{path}: parameter {int(np.flatnonzero(~np.isfinite(theta))[0])} is not finite")
    extra = header.get("extra", {})
    window = extra.get("window", input_dim)
    if type(window) is not int or window != input_dim:
        raise DataError(f"{path}: window {window!r} does not match input_dim {input_dim}")
    norm = extra.get("target_norm")  # null or []: predict scales by the target's own min/max
    if norm not in (None, []) and not (
        isinstance(norm, list) and len(norm) == 2
        and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in norm)  # exact, even for a huge int
    ):
        raise DataError(f"{path}: target_norm {norm!r} is neither null nor two finite numbers")
    return spec, theta, tuple(norm) if norm else None
