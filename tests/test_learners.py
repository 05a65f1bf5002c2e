import json
import re

import numpy as np
import pytest

from fewcast import learners
from fewcast.data import DataError, WindowPair
from fewcast.learners import (
    LearnerSpec,
    NumericError,
    OPTIMIZERS,
    dump_params,
    forward,
    gradient,
    init_optimizer,
    init_params,
    load_params,
    loss,
    n_params,
    optimizer_step,
)


def pairs_from(xs, ys):
    return [WindowPair(x=np.asarray(x, dtype=np.float64), y=float(y)) for x, y in zip(xs, ys)]


def random_pairs(rng, n, dim):
    return pairs_from(rng.standard_normal((n, dim)), rng.standard_normal(n))


def finite_difference(spec, theta, data, h=1e-5):
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (loss(spec, up, data) - loss(spec, down, data)) / (2.0 * h)
    return fd


def assert_gradients_close(analytic, numeric, rel=1e-4, floor=1e-7):
    # agree within relative error `rel`, with an absolute floor for
    # coordinates whose magnitude is below the finite-difference noise
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    assert np.all(np.abs(analytic - numeric) <= np.maximum(floor, rel * scale))


class TestLayout:
    def test_linear_length(self):
        assert n_params(LearnerSpec("linear", input_dim=24)) == 25
        theta = init_params(LearnerSpec("linear", input_dim=24), seed=0)
        assert theta.shape == (25,)

    def test_mlp_length_formula(self):
        # layout arithmetic: w*h (hidden weights) + h (hidden bias)
        # + h (readout weights) + 1 (readout bias)
        w, h = 24, 128
        assert n_params(LearnerSpec("mlp", input_dim=w, width=h)) == w * h + h + h + 1

    def test_recurrent_length_formula(self):
        h = 16
        expected = 3 * (h + h * h + h) + h + 1
        assert n_params(LearnerSpec("recurrent", input_dim=8, width=h)) == expected

    @pytest.mark.parametrize("width", [1, 8, 128])
    @pytest.mark.parametrize("family", learners.FAMILIES)
    def test_n_params_is_the_initialized_length(self, family, width):
        spec = LearnerSpec(family, input_dim=5, width=width)
        assert n_params(spec) == init_params(spec, seed=0).size

    def test_init_deterministic(self):
        spec = LearnerSpec("mlp", input_dim=12, width=32)
        assert np.array_equal(init_params(spec, seed=5), init_params(spec, seed=5))
        assert not np.array_equal(init_params(spec, seed=5), init_params(spec, seed=6))

    def test_init_biases_zero(self):
        spec = LearnerSpec("linear", input_dim=4)
        theta = init_params(spec, seed=1)
        assert theta[-1] == 0.0

    def test_init_scale(self):
        spec = LearnerSpec("mlp", input_dim=100, width=8)
        theta = init_params(spec, seed=2)
        bound = 1.0 / np.sqrt(100)
        assert np.max(np.abs(theta[: 8 * 100])) <= bound


def forecast_one(spec, theta, x):
    """The forecast for a single lag window: ``forward`` on a one-row batch."""
    return forward(spec, theta, np.asarray(x, dtype=np.float64)[None])[0]


class TestPredict:
    def test_zero_params_predict_zero(self):
        spec = LearnerSpec("linear", input_dim=3)
        assert forecast_one(spec, np.zeros(4), [1.0, -2.0, 5.0]) == 0.0

    def test_linear_affine(self):
        spec = LearnerSpec("linear", input_dim=3)
        theta = np.array([1.0, 0.0, 0.0, 2.0])  # weights [1,0,0], bias 2
        assert forecast_one(spec, theta, [3.0, 7.0, -1.0]) == 5.0

    def test_mlp_zero_readout_gives_bias(self):
        spec = LearnerSpec("mlp", input_dim=4, width=6)
        theta = init_params(spec, seed=3)
        theta[4 * 6 + 6 : 4 * 6 + 6 + 6] = 0.0  # readout weights
        theta[-1] = 0.25  # readout bias
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert forecast_one(spec, theta, rng.standard_normal(4)) == 0.25

    def test_dimension_mismatch(self):
        spec = LearnerSpec("linear", input_dim=3)
        with pytest.raises(ValueError):
            forecast_one(spec, np.zeros(4), [1.0, 2.0])

    def test_deterministic_bits(self):
        rng = np.random.default_rng(4)
        spec = LearnerSpec("recurrent", input_dim=6, width=4)
        theta = init_params(spec, seed=0) + 0.1 * rng.standard_normal(n_params(spec))
        x = rng.standard_normal(6)
        assert forecast_one(spec, theta, x) == forecast_one(spec, theta, x)


class TestLoss:
    def test_perfect_predictor_zero(self):
        spec = LearnerSpec("linear", input_dim=1)
        theta = np.array([1.0, 0.0])
        data = pairs_from([[2.0], [3.0]], [2.0, 3.0])
        assert loss(spec, theta, data) == 0.0

    def test_single_residual(self):
        spec = LearnerSpec("linear", input_dim=1)
        data = pairs_from([[1.0]], [1.0])
        assert loss(spec, np.zeros(2), data) == 1.0

    def test_summed_and_averaged_forms(self):
        # residuals 1 and 2: summed 5, averaged 2.5
        spec = LearnerSpec("linear", input_dim=1)
        data = pairs_from([[1.0], [2.0]], [-1.0, -2.0])
        theta = np.zeros(2)
        assert loss(spec, theta, pairs_from([[0.0], [0.0]], [1.0, 2.0])) == 5.0
        assert loss(spec, theta, pairs_from([[0.0], [0.0]], [1.0, 2.0]), average=True) == 2.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        spec = LearnerSpec("mlp", input_dim=5, width=7)
        theta = init_params(spec, seed=1)
        data = random_pairs(rng, 9, 5)
        shuffled = [data[i] for i in rng.permutation(9)]
        assert loss(spec, theta, data) == pytest.approx(loss(spec, theta, shuffled), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss(LearnerSpec("linear", input_dim=1), np.zeros(2), [])


class TestGradient:
    def test_zero_at_minimum(self):
        spec = LearnerSpec("linear", input_dim=1)
        theta = np.array([1.0, 0.0])
        data = pairs_from([[2.0], [5.0]], [2.0, 5.0])
        assert np.all(gradient(spec, theta, data) == 0.0)

    def test_hand_derived_linear(self):
        # d/dw (w*1 + b - 1)^2 = -2 and d/db = -2 at w=b=0
        spec = LearnerSpec("linear", input_dim=1)
        g = gradient(spec, np.zeros(2), pairs_from([[1.0]], [1.0]))
        assert np.allclose(g, [-2.0, -2.0])

    @pytest.mark.parametrize("family,width", [("linear", 1), ("mlp", 6), ("recurrent", 5)])
    def test_matches_finite_differences(self, family, width):
        rng = np.random.default_rng(hash(family) % 2**32)
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            spec = LearnerSpec(family, input_dim=dim, width=width)
            theta = init_params(spec, seed=int(rng.integers(1000)))
            theta += 0.3 * rng.standard_normal(theta.size)
            data = random_pairs(rng, int(rng.integers(1, 6)), dim)
            assert_gradients_close(gradient(spec, theta, data), finite_difference(spec, theta, data))

    def test_averaged_gradient_scales(self):
        rng = np.random.default_rng(6)
        spec = LearnerSpec("mlp", input_dim=4, width=3)
        theta = init_params(spec, seed=2)
        data = random_pairs(rng, 5, 4)
        assert np.allclose(gradient(spec, theta, data, average=True) * 5, gradient(spec, theta, data))

    @pytest.mark.parametrize("family,width", [("linear", 1), ("mlp", 6), ("recurrent", 5)])
    def test_windows_of_another_width_rejected(self, family, width):
        # as forward and loss reject them: a recurrent spec once took these (5, 7) windows silently
        spec = LearnerSpec(family, input_dim=3, width=width)
        theta, data = init_params(spec, seed=0), random_pairs(np.random.default_rng(0), 5, 7)
        with pytest.raises(ValueError, match=re.escape("inputs have shape (5, 7); spec requires (n, 3)")):
            gradient(spec, theta, data)


def out_of_place_mlp(spec, theta, X, y):
    """The mlp pass written with a fresh array per operation: the reference
    whose bits the in-place forward and backward passes must keep."""
    d, h = spec.input_dim, spec.width
    W1, b1, v, b2 = theta[: h * d].reshape(h, d), theta[h * d : h * d + h], theta[h * d + h : -1], theta[-1]
    hidden = np.tanh(X @ W1.T + b1)
    yhat = hidden @ v + b2
    dy = 2.0 * (yhat - y)
    da = np.outer(dy, v) * (1.0 - hidden**2)
    return yhat, yhat - y, np.concatenate([(da.T @ X).ravel(), da.sum(axis=0), hidden.T @ dy, [dy.sum()]])


@pytest.mark.parametrize("width", [1, 128, 1024])
@pytest.mark.parametrize("batch", [10, 115])
def test_in_place_mlp_pass_keeps_the_out_of_place_bits(width, batch):
    rng = np.random.default_rng(width + batch)
    spec = LearnerSpec("mlp", input_dim=24, width=width)
    theta = init_params(spec, seed=3) + 0.1 * rng.standard_normal(n_params(spec))
    X, y = rng.standard_normal((batch, 24)), rng.standard_normal(batch)
    yhat, residuals, grad = out_of_place_mlp(spec, theta, X, y)
    got_residuals, got_grad = learners._grad_mlp(spec, theta, X, y)
    value = loss(spec, theta, pairs_from(X, y))
    assert forward(spec, theta, X).tobytes() == yhat.tobytes()
    assert got_residuals.tobytes() == residuals.tobytes()
    assert np.float64(value).tobytes() == np.float64(residuals @ residuals).tobytes()
    assert got_grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("batch", [1, 5, 10, 115])
@pytest.mark.parametrize("family, width", [("mlp", 1), ("mlp", 128), ("mlp", 1024),
                                           ("recurrent", 1), ("recurrent", 8), ("recurrent", 128)])
def test_stacked_and_broadcast_passes_keep_the_per_task_bits(family, width, batch):
    rng = np.random.default_rng(width + batch)
    spec = LearnerSpec(family, input_dim=24, width=width)
    thetas = init_params(spec, seed=3) + 0.1 * rng.standard_normal((4, n_params(spec)))
    X, y = rng.standard_normal((4, batch, 24)), rng.standard_normal((4, batch))
    forward_pass, gradient_pass = learners._FORWARDS[family], learners.RESIDUALS_AND_GRADIENTS[family]
    cases = [(spec, X)]
    if family == "recurrent":  # 29 time steps: three whole CHUNKs and a part of one
        cases.append((LearnerSpec(family, input_dim=29, width=width), rng.standard_normal((4, batch, 29))))
    for spec, X in cases:
        for stack in (thetas, thetas[:1]):  # one theta per task, or one broadcast over the tasks
            yhats = forward_pass(spec, stack, X)
            residuals, grads = gradient_pass(spec, stack, X, y)
            for k, theta in enumerate(np.broadcast_to(stack, thetas.shape)):
                pairs = pairs_from(X[k], y[k])
                assert yhats[k].tobytes() == forward(spec, theta, X[k]).tobytes()
                assert np.float64(residuals[k] @ residuals[k]).tobytes() == np.float64(loss(spec, theta, pairs)).tobytes()
                assert grads[k].tobytes() == gradient(spec, theta.copy(), pairs).tobytes()


def concatenated_linear(spec, theta, X, y):
    """The linear gradient pass as written before it filled one buffer: each block built, then concatenated."""
    residuals = learners._forward_linear(spec, theta, X) - y
    dy = 2.0 * residuals
    return residuals, np.concatenate([(dy[..., None, :] @ X)[..., 0, :], dy.sum(axis=-1, keepdims=True)], axis=-1)


def concatenated_mlp(spec, theta, X, y):
    """The mlp gradient pass as written before it filled one buffer."""
    _, _, v, _ = learners._unpack_mlp(spec, theta)
    yhat, hidden = learners._forward_mlp(spec, theta, X, want_cache=True)
    residuals = yhat - y
    dy = 2.0 * residuals
    dv = (hidden.swapaxes(-1, -2) @ dy[..., None])[..., 0]
    db2 = dy.sum(axis=-1, keepdims=True)
    da = dy[..., :, None] * v[..., None, :] * (1.0 - hidden**2)
    dW1 = da.swapaxes(-1, -2) @ X
    db1 = da.sum(axis=-2)
    return residuals, np.concatenate([dW1.reshape(db1.shape[:-1] + (-1,)), db1, dv, db2], axis=-1)


@pytest.mark.parametrize("stack", ["single", "broadcast", "tasks"])
@pytest.mark.parametrize("batch", [1, 10, 115])
@pytest.mark.parametrize("family, width, reference", [("linear", 1, concatenated_linear), ("mlp", 1, concatenated_mlp),
                                                      ("mlp", 128, concatenated_mlp), ("mlp", 1024, concatenated_mlp)])
def test_one_buffer_gradients_keep_the_concatenated_bits(family, width, reference, batch, stack):
    rng = np.random.default_rng(width * 1000 + batch)
    spec = LearnerSpec(family, input_dim=24, width=width)
    p = n_params(spec)
    theta_shape, X_shape = {"single": ((p,), (batch, 24)), "broadcast": ((1, p), (4, batch, 24)),
                            "tasks": ((4, p), (4, batch, 24))}[stack]
    theta = init_params(spec, seed=3) + 0.1 * rng.standard_normal(theta_shape)
    X, y = rng.standard_normal(X_shape), rng.standard_normal(X_shape[:-1])
    expected_residuals, expected_grad = reference(spec, theta, X, y)
    residuals, grad = learners.RESIDUALS_AND_GRADIENTS[family](spec, theta, X, y)
    assert residuals.tobytes() == expected_residuals.tobytes()
    assert grad.shape == expected_grad.shape and grad.flags.c_contiguous
    assert grad.tobytes() == expected_grad.tobytes()


def reference_recurrent(spec, theta, X):
    """The gated recurrent cell step by step, from the flat layout: per gate
    w (h), U (h x h, applied as h @ U) and b (h), then the readout v and c."""
    h, out, i = spec.width, [], 0
    for _ in range(3):
        out += [theta[i : i + h], theta[i + h : i + h + h * h].reshape(h, h), theta[i + h + h * h : i + 2 * h + h * h]]
        i += 2 * h + h * h
    (wz, Uz, bz, wr, Ur, br, wh, Uh, bh), v, c = out, theta[i : i + h], theta[-1]
    state = np.zeros((len(X), h))
    for x in X.T[:, :, None]:
        z = 1.0 / (1.0 + np.exp(-(x * wz + state @ Uz + bz)))
        r = 1.0 / (1.0 + np.exp(-(x * wr + state @ Ur + br)))
        state = (1.0 - z) * state + z * np.tanh(x * wh + (r * state) @ Uh + bh)
    return state @ v + c


@pytest.mark.parametrize("input_dim", [5, 13, 29])  # time steps below, above and not a multiple of CHUNK
@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("batch", [1, 7])
def test_recurrent_pass_across_chunk_boundaries(input_dim, width, batch):
    rng = np.random.default_rng(input_dim * 100 + width * 10 + batch)
    spec = LearnerSpec("recurrent", input_dim=input_dim, width=width)
    theta = init_params(spec, seed=5) + 0.3 * rng.standard_normal(n_params(spec))
    data = random_pairs(rng, batch, input_dim)
    X, y = learners.pairs_to_arrays(data)
    residuals, grad = learners._grad_recurrent(spec, theta, X, y)
    assert residuals.tobytes() == (forward(spec, theta, X) - y).tobytes()  # the forward the gradient pass caches
    assert np.allclose(forward(spec, theta, X), reference_recurrent(spec, theta, X), rtol=1e-12, atol=1e-12)
    assert_gradients_close(grad, finite_difference(spec, theta, data))


def out_of_place_step(state, theta, grad, lr):
    """Every optimizer update as an out-of-place expression: the reference
    whose bits the buffer-reusing updates must keep."""
    t = state.step + 1
    if state.kind == "sgd":
        return theta - lr * grad, ()
    if state.kind == "adam":
        m, s = state.acc
        m = 0.9 * m + (1.0 - 0.9) * grad
        s = 0.999 * s + (1.0 - 0.999) * grad**2
        m_hat, s_hat = m / (1.0 - 0.9**t), s / (1.0 - 0.999**t)
        return theta - lr * m_hat / (np.sqrt(s_hat) + 1e-8), (m, s)
    if state.kind == "rmsprop":
        s = 0.9 * state.acc[0] + (1.0 - 0.9) * grad**2
        return theta - lr * grad / (np.sqrt(s) + 1e-8), (s,)
    if state.kind == "adadelta":
        s, d = state.acc
        s = 0.95 * s + (1.0 - 0.95) * grad**2
        delta = -np.sqrt(d + 1e-6) / np.sqrt(s + 1e-6) * grad
        d = 0.95 * d + (1.0 - 0.95) * delta**2
        return theta + lr * delta, (s, d)
    s = state.acc[0] + grad**2
    return theta - lr * grad / (np.sqrt(s) + 1e-10), (s,)


class TestOptimizers:
    def test_sgd_step(self):
        state = init_optimizer("sgd", 1)
        theta, state = optimizer_step(state, np.array([1.0]), np.array([0.5]), lr=0.1)
        assert np.allclose(theta, [0.95])
        assert state.step == 1

    def test_sgd_zero_gradient_noop(self):
        state = init_optimizer("sgd", 3)
        theta0 = np.array([1.0, -2.0, 0.5])
        theta, _ = optimizer_step(state, theta0, np.zeros(3), lr=0.3)
        assert np.array_equal(theta, theta0)

    def test_adam_first_step_hand_computed(self):
        # t=1: m=0.1*0.5, v=0.001*0.25, m_hat=0.5, v_hat=0.25,
        # step = 0.1*0.5/(0.5+1e-8) ~= 0.1
        state = init_optimizer("adam", 1)
        theta, _ = optimizer_step(state, np.array([0.0]), np.array([0.5]), lr=0.1)
        expected = -0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert np.allclose(theta, [expected])
        assert abs(theta[0] + 0.1) < 1e-6

    def test_adam_two_steps_recurrence(self):
        # replay the published recurrences by hand for two steps
        g1, g2, lr = 0.5, -0.25, 0.01
        m = v = 0.0
        theta = 0.3
        for t, g in enumerate([g1, g2], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        state = init_optimizer("adam", 1)
        out = np.array([0.3])
        for g in [g1, g2]:
            out, state = optimizer_step(state, out, np.array([g]), lr=lr)
        assert np.allclose(out, [theta])

    def test_rmsprop_first_step(self):
        state = init_optimizer("rmsprop", 1)
        theta, _ = optimizer_step(state, np.array([0.0]), np.array([2.0]), lr=0.1)
        s = 0.1 * 4.0
        assert np.allclose(theta, [-0.1 * 2.0 / (np.sqrt(s) + 1e-8)])

    def test_adagrad_accumulates(self):
        state = init_optimizer("adagrad", 1)
        theta = np.array([0.0])
        theta, state = optimizer_step(state, theta, np.array([1.0]), lr=0.1)
        theta, state = optimizer_step(state, theta, np.array([1.0]), lr=0.1)
        expected = -0.1 / (1.0 + 1e-10) - 0.1 / (np.sqrt(2.0) + 1e-10)
        assert np.allclose(theta, [expected])

    def test_adadelta_first_step(self):
        state = init_optimizer("adadelta", 1)
        theta, _ = optimizer_step(state, np.array([0.0]), np.array([1.0]), lr=1.0)
        s = 0.05
        delta = -np.sqrt(1e-6) / np.sqrt(s + 1e-6) * 1.0
        assert np.allclose(theta, [delta])

    @pytest.mark.parametrize("kind", OPTIMIZERS)
    def test_pure_no_mutation(self, kind):
        state = init_optimizer(kind, 2)
        theta = np.array([1.0, 2.0])
        grad = np.array([0.1, -0.2])
        theta_copy, grad_copy = theta.copy(), grad.copy()
        optimizer_step(state, theta, grad, lr=0.05)
        assert np.array_equal(theta, theta_copy)
        assert np.array_equal(grad, grad_copy)
        for acc in state.acc:
            assert np.all(acc == 0.0)

    @pytest.mark.parametrize("size", [1, 25, 1000])
    @pytest.mark.parametrize("kind", OPTIMIZERS)
    def test_updates_keep_the_out_of_place_bits(self, kind, size):
        # 60 steps at random learning rates in [1e-4, 0.5], gradient magnitudes spanning 1e-8 to 1e3 and both signs
        rng = np.random.default_rng(OPTIMIZERS.index(kind) * 10 + size)
        state, theta = init_optimizer(kind, size), rng.standard_normal(size)
        for step in range(60):
            grad = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 3, size)
            lr = float(rng.uniform(1e-4, 0.5))
            expected_theta, expected_acc = out_of_place_step(state, theta, grad, lr)
            theta, state = optimizer_step(state, theta, grad, lr)
            assert state.step == step + 1 and len(state.acc) == len(expected_acc)
            assert theta.tobytes() == expected_theta.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(state.acc, expected_acc))

    @pytest.mark.parametrize("kind", OPTIMIZERS)
    def test_returns_fresh_arrays(self, kind):
        state, theta, grad = init_optimizer(kind, 3), np.ones(3), np.full(3, 0.5)
        new_theta, new_state = optimizer_step(state, theta, grad, lr=0.1)
        inputs, outputs = (theta, grad, *state.acc), (new_theta, *new_state.acc)
        for i, out in enumerate(outputs):
            assert not any(np.shares_memory(out, other) for other in inputs + outputs[:i])

    def test_shape_mismatch_rejected(self):
        state = init_optimizer("sgd", 2)
        with pytest.raises(ValueError):
            optimizer_step(state, np.zeros(2), np.zeros(3), lr=0.1)

    def test_non_finite_gradient_names_coordinate(self):
        state = init_optimizer("sgd", 3)
        grad = np.array([0.0, np.nan, 0.0])
        with pytest.raises(NumericError, match="coordinate 1"):
            optimizer_step(state, np.zeros(3), grad, lr=0.1)

    def test_non_positive_lr_rejected(self):
        state = init_optimizer("sgd", 1)
        with pytest.raises(ValueError):
            optimizer_step(state, np.zeros(1), np.zeros(1), lr=0.0)


def write_extra_block(path, spec, extra):
    """A checkpoint whose header holds ``extra`` as its ``extra`` block, or no such block when it is empty."""
    header, payload = dump_params(spec, init_params(spec, seed=0)).split(b"\n", 1)
    header = {key: value for key, value in json.loads(header).items() if key != "extra"}
    path.write_bytes(json.dumps({**header, "extra": extra} if extra else header).encode() + b"\n" + payload)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = LearnerSpec("mlp", input_dim=7, width=5)
        theta = init_params(spec, seed=9)
        path = tmp_path / "model.params"
        path.write_bytes(dump_params(spec, theta, target_norm=(0.0, 2.0)))
        spec2, theta2, target_norm = load_params(path)
        assert spec2 == spec
        assert np.array_equal(theta, theta2)
        assert target_norm == (0.0, 2.0)
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["extra"] == {"target_norm": [0.0, 2.0], "window": 7}

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_bytes(b'{"format_version": 999}\n' + b"\x00" * 8)
        with pytest.raises(DataError, match="format_version"):
            load_params(path)

    def test_truncated_payload(self, tmp_path):
        spec = LearnerSpec("linear", input_dim=3)
        path = tmp_path / "trunc.params"
        path.write_bytes(dump_params(spec, init_params(spec, seed=0)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            load_params(path)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"window": 4}, "window 4 does not match input_dim 3"),
            ({"window": "3"}, "window '3' does not match"),
            ({"target_norm": [0.0]}, "target_norm"),
            ({"target_norm": [0.0, float("nan")]}, "target_norm"),
            ({"target_norm": [0.0, 10**400]}, "target_norm"),
            ({"target_norm": [True, 1.0]}, "target_norm"),
            ({"target_norm": "ab"}, "target_norm"),
        ],
    )
    def test_extra_block_checked(self, tmp_path, extra, message):
        path = tmp_path / "model.params"
        write_extra_block(path, LearnerSpec("linear", input_dim=3), extra)
        with pytest.raises(DataError, match=message):
            load_params(path)

    @pytest.mark.parametrize("extra", [{}, {"window": 3, "target_norm": []}, {"target_norm": None},
                                       {"window": 3, "target_norm": [-2, 1e300]}])
    def test_valid_extra_block_loads(self, tmp_path, extra):
        # an empty, null or absent target_norm loads as None: no scaler
        path = tmp_path / "model.params"
        write_extra_block(path, LearnerSpec("linear", input_dim=3), extra)
        assert load_params(path)[2] == (tuple(extra.get("target_norm") or ()) or None)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        spec = LearnerSpec("mlp", input_dim=3, width=2)
        theta = init_params(spec, seed=0)
        theta[5] = value
        path = tmp_path / "model.params"
        path.write_bytes(dump_params(spec, theta))
        with pytest.raises(DataError, match="parameter 5 is not finite"):
            load_params(path)

    def test_deeply_nested_header_rejected(self, tmp_path):
        path = tmp_path / "deep.params"
        path.write_bytes(b"[" * 100_000 + b"\n")
        with pytest.raises(DataError, match="unreadable header"):
            load_params(path)

    def test_forward_batch_matches_single_rows(self):
        rng = np.random.default_rng(8)
        spec = LearnerSpec("recurrent", input_dim=5, width=3)
        theta = init_params(spec, seed=4) + 0.2 * rng.standard_normal(n_params(spec))
        X = rng.standard_normal((6, 5))
        batch = forward(spec, theta, X)
        single = [forecast_one(spec, theta, x) for x in X]
        assert np.allclose(batch, single, atol=1e-12)
