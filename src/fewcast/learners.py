"""Differentiable base forecasters over flat parameter vectors.

Three families, all mapping a lag window x (length w) to a scalar forecast:

  linear     y = w.x + b
  mlp        y = v.tanh(W1 x + b1) + b2           (one hidden layer)
  recurrent  gated recurrent cell fed x as a scalar sequence, affine readout
             of the final hidden state

Parameters live in a single flat float64 vector with a fixed layout per
LearnerSpec, so the meta-level code can treat every family identically.
Gradients are exact analytic reverse-mode derivatives of the summed squared
error, written out by hand (no autodiff framework).

The five optimizers act on (theta, grad) pairs and are pure: they return an
updated vector and an advanced state instead of mutating anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Windows, pairs_to_arrays
from .rng import spawn

FAMILIES = ("linear", "mlp", "recurrent")
OPTIMIZERS = ("sgd", "adam", "rmsprop", "adadelta", "adagrad")
PARAMS_FORMAT_VERSION = 1

# Fixed optimizer constants (only the learning rate is ever searched).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
RMSPROP_RHO, RMSPROP_EPS = 0.9, 1e-8
ADADELTA_RHO, ADADELTA_EPS = 0.95, 1e-6
ADAGRAD_EPS = 1e-10


class NumericError(ArithmeticError):
    """Non-finite values encountered during optimization."""


class CheckpointError(ValueError):
    """Parameter file does not match the expected format or spec."""


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
    d, h = spec.input_dim, spec.width
    if spec.family == "linear":
        return d + 1
    if spec.family == "mlp":
        return h * d + h + h + 1
    return 3 * (h + h * h + h) + h + 1  # recurrent: three gates + readout


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


def _unpack_recurrent(spec, theta):
    # the gate and readout vectors come as rows (..., 1, h), to broadcast over a batch
    h = spec.width
    out, i = [], 0
    for _ in range(3):  # update gate, reset gate, candidate
        out.append(theta[..., None, i : i + h])
        i += h
        out.append(theta[..., i : i + h * h].reshape(theta.shape[:-1] + (h, h)))
        i += h * h
        out.append(theta[..., None, i : i + h])
        i += h
    out.append(theta[..., None, i : i + h])
    out.append(theta[..., -1:])
    return out  # wz, Uz, bz, wr, Ur, br, wh, Uh, bh, v, c


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_theta(spec, theta):
    if theta.shape != (n_params(spec),):
        raise ValueError(f"parameter vector has shape {theta.shape}; spec requires ({n_params(spec)},)")


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


def _forward_recurrent(spec, theta, X, want_cache=False):
    wz, Uz, bz, wr, Ur, br, wh, Uh, bh, v, c = _unpack_recurrent(spec, theta)
    h = np.zeros(X.shape[:-1] + (spec.width,))
    steps = []
    for t in range(X.shape[-1]):
        x_t = X[..., t, None]
        z = _sigmoid(x_t * wz + h @ Uz + bz)
        r = _sigmoid(x_t * wr + h @ Ur + br)
        hbar = np.tanh(x_t * wh + (r * h) @ Uh + bh)
        h_new = (1.0 - z) * h + z * hbar
        if want_cache:
            steps.append((h, z, r, hbar))
        h = h_new
    yhat = (h @ v.swapaxes(-1, -2))[..., 0] + c
    return (yhat, h, steps) if want_cache else yhat


_FORWARDS = {"linear": _forward_linear, "mlp": _forward_mlp, "recurrent": _forward_recurrent}


def forward(spec: LearnerSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Batched forecasts for X of shape (n, input_dim)."""
    _check_theta(spec, theta)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"inputs have shape {X.shape}; spec requires (n, {spec.input_dim})")
    return _FORWARDS[spec.family](spec, theta, X)


def predict(spec: LearnerSpec, theta: np.ndarray, x: np.ndarray) -> float:
    """Forecast for a single lag window."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.input_dim,):
        raise ValueError(f"input has shape {x.shape}; spec requires ({spec.input_dim},)")
    return float(forward(spec, theta, x[None, :])[0])


def loss(spec: LearnerSpec, theta: np.ndarray, data: Windows, average: bool = False) -> float:
    """Squared-error loss: summed by default, averaged when ``average`` is set.

    The summed form feeds meta-training; the averaged form is the reported
    empirical risk.
    """
    X, y = pairs_to_arrays(data)
    return _squared_error(forward(spec, theta, X) - y, average)


def value_and_grad(
    spec: LearnerSpec, theta: np.ndarray, data: Windows, average: bool = False
) -> tuple[float, np.ndarray]:
    """:func:`loss` and :func:`gradient` together, from one forward pass."""
    X, y = pairs_to_arrays(data)
    _check_theta(spec, theta)
    residuals, grad = RESIDUALS_AND_GRADIENTS[spec.family](spec, theta, X, y)
    return _squared_error(residuals, average), (grad / len(y) if average else grad)


def gradient(spec: LearnerSpec, theta: np.ndarray, data: Windows, average: bool = False) -> np.ndarray:
    """Exact gradient of :func:`loss` with respect to the flat parameters."""
    return value_and_grad(spec, theta, data, average)[1]


def _squared_error(residuals, average):
    return float(np.mean(residuals**2)) if average else float(residuals @ residuals)


# Each _grad_<family> returns the residuals (forecast - y) of its forward
# pass along with the gradient, so the loss needs no second forward pass.


def _grad_linear(spec, theta, X, y):
    residuals = _forward_linear(spec, theta, X) - y
    dy = 2.0 * residuals
    return residuals, np.concatenate([(dy[..., None, :] @ X)[..., 0, :], dy.sum(axis=-1, keepdims=True)], axis=-1)


def _grad_mlp(spec, theta, X, y):
    _, _, v, _ = _unpack_mlp(spec, theta)
    yhat, hidden = _forward_mlp(spec, theta, X, want_cache=True)
    residuals = yhat - y
    dy = 2.0 * residuals
    dv = (hidden.swapaxes(-1, -2) @ dy[..., None])[..., 0]
    db2 = dy.sum(axis=-1, keepdims=True)
    # (dy v)(1 - h^2), as the out-of-place form rounds it, with hidden
    # overwritten by 1 - h^2 instead of two more (batch, width) temporaries
    da = dy[..., :, None] * v[..., None, :]
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    da *= hidden
    dW1 = da.swapaxes(-1, -2) @ X
    db1 = da.sum(axis=-2)
    return residuals, np.concatenate([dW1.reshape(db1.shape[:-1] + (-1,)), db1, dv, db2], axis=-1)


def _grad_recurrent(spec, theta, X, y):
    wz, Uz, bz, wr, Ur, br, wh, Uh, bh, v, c = _unpack_recurrent(spec, theta)
    yhat, h_final, steps = _forward_recurrent(spec, theta, X, want_cache=True)
    UzT, UrT, UhT = (np.ascontiguousarray(U.swapaxes(-1, -2)) for U in (Uz, Ur, Uh))  # once, not per step
    residuals = yhat - y
    dy = 2.0 * residuals

    lead, width = X.shape[:-2], spec.width
    g_wz, g_bz, g_wr, g_br, g_wh, g_bh = (np.zeros(lead + (width,)) for _ in range(6))
    g_Uz, g_Ur, g_Uh = (np.zeros(lead + (width, width)) for _ in range(3))
    g_v = (h_final.swapaxes(-1, -2) @ dy[..., None])[..., 0]
    g_c = dy.sum(axis=-1, keepdims=True)

    dh = dy[..., :, None] * v
    for t in range(X.shape[-1] - 1, -1, -1):
        h_prev, z, r, hbar = steps[t]
        x_t = X[..., t, None]

        dz = dh * (hbar - h_prev)
        dhbar = dh * z
        dh_prev = dh * (1.0 - z)

        dpre_h = dhbar * (1.0 - hbar**2)
        g_wh += (dpre_h * x_t).sum(axis=-2)
        g_Uh += (r * h_prev).swapaxes(-1, -2) @ dpre_h
        g_bh += dpre_h.sum(axis=-2)
        drh = dpre_h @ UhT
        dh_prev += drh * r

        dpre_r = (drh * h_prev) * r * (1.0 - r)
        g_wr += (dpre_r * x_t).sum(axis=-2)
        g_Ur += h_prev.swapaxes(-1, -2) @ dpre_r
        g_br += dpre_r.sum(axis=-2)
        dh_prev += dpre_r @ UrT

        dpre_z = dz * z * (1.0 - z)
        g_wz += (dpre_z * x_t).sum(axis=-2)
        g_Uz += h_prev.swapaxes(-1, -2) @ dpre_z
        g_bz += dpre_z.sum(axis=-2)
        dh_prev += dpre_z @ UzT

        dh = dh_prev

    blocks = [g_wz, g_Uz, g_bz, g_wr, g_Ur, g_br, g_wh, g_Uh, g_bh, g_v, g_c]
    return residuals, np.concatenate([g.reshape(lead + (-1,)) for g in blocks], axis=-1)


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
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise NumericError(f"non-finite gradient at coordinate {int(bad[0])}")

    t = state.step + 1
    if state.kind == "sgd":
        return theta - lr * grad, OptimizerState("sgd", t, ())
    if state.kind == "adam":
        m, s = state.acc
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        s = ADAM_BETA2 * s + (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / (1.0 - ADAM_BETA1**t)
        s_hat = s / (1.0 - ADAM_BETA2**t)
        return theta - lr * m_hat / (np.sqrt(s_hat) + ADAM_EPS), OptimizerState("adam", t, (m, s))
    if state.kind == "rmsprop":
        (s,) = state.acc
        s = RMSPROP_RHO * s + (1.0 - RMSPROP_RHO) * grad**2
        return theta - lr * grad / (np.sqrt(s) + RMSPROP_EPS), OptimizerState("rmsprop", t, (s,))
    if state.kind == "adadelta":
        s, d = state.acc
        s = ADADELTA_RHO * s + (1.0 - ADADELTA_RHO) * grad**2
        delta = -np.sqrt(d + ADADELTA_EPS) / np.sqrt(s + ADADELTA_EPS) * grad
        d = ADADELTA_RHO * d + (1.0 - ADADELTA_RHO) * delta**2
        return theta + lr * delta, OptimizerState("adadelta", t, (s, d))
    (s,) = state.acc
    s = s + grad**2
    return theta - lr * grad / (np.sqrt(s) + ADAGRAD_EPS), OptimizerState("adagrad", t, (s,))


# --- checkpoint serialization ---------------------------------------------


def dump_params(spec: LearnerSpec, theta: np.ndarray, extra: dict | None = None) -> bytes:
    """Flat little-endian float64 blob behind a one-line JSON header."""
    header = {
        "format_version": PARAMS_FORMAT_VERSION,
        "family": spec.family,
        "input_dim": spec.input_dim,
        "width": spec.width,
        "n_params": int(theta.size),
    }
    if extra:
        header["extra"] = extra
    blob = np.ascontiguousarray(theta, dtype="<f8").tobytes()
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + blob


def load_params(path) -> tuple[LearnerSpec, np.ndarray, dict]:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("extra", {}), dict):
        raise CheckpointError(f"{path}: header or its 'extra' field is not a JSON object")
    if header.get("format_version") != PARAMS_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {header.get('format_version')!r} != {PARAMS_FORMAT_VERSION}"
        )
    try:
        family, input_dim, width, declared = (header[key] for key in ("family", "input_dim", "width", "n_params"))
    except KeyError as exc:
        raise CheckpointError(f"{path}: header lacks {exc}") from None
    if not all(type(value) is int for value in (input_dim, width, declared)):
        raise CheckpointError(f"{path}: input_dim, width and n_params must be integers")
    try:
        spec = LearnerSpec(family=family, input_dim=input_dim, width=width)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    payload = raw[newline + 1 :]
    if len(payload) % 8:
        raise CheckpointError(f"{path}: payload of {len(payload)} bytes is not a whole number of float64 values")
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if theta.size != declared or theta.size != n_params(spec):
        raise CheckpointError(
            f"{path}: payload holds {theta.size} values; header/spec require {n_params(spec)}"
        )
    return spec, theta, header.get("extra", {})
