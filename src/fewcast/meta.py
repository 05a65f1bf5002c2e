"""Episodic first-order meta-training and whole-pipeline evaluation.

The lower level of the bi-level loop: train a shared initialization across
the source tasks (inner adaptation on support sets, first-order outer update
from query-set gradients), fine-tune it on the target's validation slice,
and report mean squared error on the disjoint test slice.

The inner step is always plain gradient descent on the summed support loss;
the searched optimizer acts only in the outer and fine-tune updates. The
outer gradient treats the adapted parameters' Jacobian as identity
(first-order approximation), so it is simply the sum over tasks of the
query-loss gradients evaluated at the adapted parameters.

Block ``j`` of ``B = EPISODE_BLOCK`` meta-iterations reads only
``spawn(seed, "meta-block", j)``, always in full, so a run of ``r``
iterations is the first ``r`` of any longer one. It draws the task picks
(first ``n_pick`` of a stable argsort of ``random((B, n_tasks))``), then
``random((B, n_t))`` support keys per task in task order, then query keys
alike. An episode takes the rows of a pool's ``shots`` smallest keys in
ascending row order. When every episode of a pool kind has one row count, an
iteration runs as one pass stacked over its tasks, and one ``take`` per pool
kind gathers each run of at most GATHER_BYTES; when pools shorter than
``shots`` differ in length, it runs as one single-task stack per task through
the same pass, gathered one iteration at a time. Either way the per-task losses
and gradients are added in task order, so a task's bits do not depend on its stack.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import DataBundle, TaskDataset, Windows
from .learners import (
    LearnerSpec,
    NumericError,
    OPTIMIZERS,
    RESIDUALS_AND_GRADIENTS,
    _check_theta,
    gradient,
    init_optimizer,
    init_params,
    loss,
    optimizer_step,
)
from .rng import derive_seed, spawn

LR_MIN, LR_MAX = 1e-4, 0.5
SEARCHED_FIELDS = ("inner_lr", "outer_lr", "finetune_lr", "optimizer")  # what a configuration sets: three rates first
EPISODE_BLOCK = 50  # meta-iterations drawn at once, the default meta_iterations; part of the stream rule
GATHER_BYTES = 1 << 20  # episode rows gathered at once, per block: a block at the default shots fits in one gather


@dataclass(frozen=True)
class MetaConfig:
    """Hyperparameters of one lower-level run, validated on construction.

    The learning rates and optimizer default to the fixed-default baseline;
    a searched configuration replaces them (see ``train_pipeline``).
    ``tasks_per_iter=None`` uses every source task each iteration; ``shots``
    is the number of support and query rows each picked task draws per
    episode: those with the smallest uniform keys, in ascending row order (a
    pool of at most ``shots`` rows is used whole). The module docstring gives
    the stream each block of ``EPISODE_BLOCK`` iterations reads.
    """

    inner_lr: float = 0.01
    outer_lr: float = 0.001
    finetune_lr: float = 0.05
    optimizer: str = "sgd"
    tasks_per_iter: int | None = None
    shots: int = 10
    meta_iterations: int = 50
    finetune_steps: int = 1
    inner_steps: int = 1

    def __post_init__(self):
        for name in SEARCHED_FIELDS[:3]:
            value = getattr(self, name)
            if not LR_MIN <= value <= LR_MAX:
                raise ValueError(f"{name} must lie in [{LR_MIN}, {LR_MAX}], got {value}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        minimums = {"tasks_per_iter": 1, "shots": 1, "meta_iterations": 0, "finetune_steps": 1, "inner_steps": 1}
        for name, low in minimums.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class PipelineConfig:
    """One complete configuration tuple: resolved values plus the option
    indices (one per search-space level) it was drawn from."""

    family: str
    width: int
    inner_lr: float
    outer_lr: float
    finetune_lr: float
    optimizer: str
    shots: int | None = None
    choices: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        out = {**vars(self), "choices": list(self.choices)}  # a field-order copy; asdict would deep-copy
        if self.shots is None:
            del out["shots"]
        return out


@dataclass(frozen=True)
class MetaResult:
    """Outcome of one full lower-level run."""

    theta_meta: np.ndarray
    theta_final: np.ndarray
    val_mse: float
    train_curve: list[tuple[int, float]]


@dataclass(frozen=True)
class EvaluationRecord:
    """One pipeline evaluation: the unit of search trajectories and statistics."""

    iteration: int
    config: PipelineConfig
    val_mse: float | None
    test_mse: float | None
    seed: int
    wall_time_ms: float
    status: str  # "ok" or "failed"

    def to_json(self) -> str:
        """The record as sorted-key strict JSON without ``wall_time_ms``, so equal runs give equal bytes."""
        payload = {**vars(self), "config": self.config.to_dict()}
        del payload["wall_time_ms"]
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def inner_adapt(
    spec: LearnerSpec, theta: np.ndarray, support: Windows, inner_lr: float, steps: int = 1
) -> np.ndarray:
    """Task adaptation: plain gradient descent on the summed support loss."""
    if inner_lr <= 0:
        raise ValueError(f"inner_lr must be positive, got {inner_lr}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    adapted = theta
    for _ in range(steps):
        adapted = adapted - inner_lr * gradient(spec, adapted, support)
    return adapted


def outer_step(
    spec: LearnerSpec,
    theta: np.ndarray,
    tasks: list[TaskDataset],
    cfg: MetaConfig,
    opt_state,
) -> tuple[np.ndarray, object, float]:
    """One meta-update: adapt per task, sum query gradients at the adapted
    parameters, step the original parameters with the configured optimizer.

    Also returns the meta-loss: the sum over tasks of the summed query loss
    at the adapted parameters."""
    _check_theta(spec, theta)
    _check_tasks(spec, tasks)
    stacks = [((t.support.X[None], t.support.y[None]), (t.query.X[None], t.query.y[None])) for t in tasks]
    return _meta_step(spec, theta, stacks, cfg, opt_state)


def _check_tasks(spec: LearnerSpec, tasks: list[TaskDataset]) -> None:
    if not tasks:
        raise ValueError("no training tasks")
    if not all(task.support and task.query for task in tasks):
        raise ValueError("every training task needs a non-empty support and query set")
    widths = {pool.X.shape[1] for task in tasks for pool in (task.support, task.query)}
    if widths != {spec.input_dim}:
        raise ValueError(f"task windows have widths {sorted(widths)}; spec requires {spec.input_dim}")


def _meta_step(spec, theta, stacks, cfg, opt_state) -> tuple[np.ndarray, object, float]:
    """One first-order meta-update over ``(support, query)`` stacks of ``(K, m, w)`` and ``(K, m)`` arrays: one
    pass over each stack's task axis per inner step, with each task's arithmetic, and so its bits, the same in any
    stack; the query losses and gradients are summed in task order."""
    residuals_and_gradient = RESIDUALS_AND_GRADIENTS[spec.family]
    total_grad, value = np.zeros(theta.shape), 0.0
    for support, query in stacks:
        adapted = theta[None, :]  # broadcast against the task axis until the first step
        for _ in range(cfg.inner_steps):
            step = residuals_and_gradient(spec, adapted, *support)[1]
            step *= -cfg.inner_lr
            adapted = np.add(step, adapted, out=step)  # adapted - lr * grad, in the gradient's buffer
        residuals, grads = residuals_and_gradient(spec, adapted, *query)
        total_grad += np.add.reduce(grads, axis=0)  # the (K, p) rows added in task order
        value = sum((residuals[:, None, :] @ residuals[:, :, None]).ravel().tolist(), value)  # each r @ r, by dot
    theta, opt_state = optimizer_step(opt_state, theta, total_grad, cfg.outer_lr)
    return theta, opt_state, value


def _draw_block(tasks: list[TaskDataset], n_pick: int, shots: int, rng):
    # yields a block's episodes, drawn in full as the module docstring says, as _meta_step's stacks: if every episode
    # of each pool kind has one row count, one K-task stack per iteration, gathered in runs of <= GATHER_BYTES; else
    # one one-task stack per picked task, gathered one iteration at a time
    picked = rng.random((EPISODE_BLOCK, len(tasks))).argsort(axis=1, kind="stable")[:, :n_pick]
    kinds = []
    for pools in ([task.support for task in tasks], [task.query for task in tasks]):
        X, y, rows = np.concatenate([p.X for p in pools]), np.concatenate([p.y for p in pools]), []
        for start, pool in zip(np.cumsum([0] + [len(p) for p in pools]), pools):
            keys = rng.random((EPISODE_BLOCK, len(pool)))  # a pool of at most ``shots`` rows gives all of them
            rows.append(start + np.sort(np.argpartition(keys, min(shots, len(pool)) - 1, axis=1)[:, :shots], axis=1))
        kinds.append((X, y, rows))
    if any(len({r.shape[1] for r in rows}) > 1 for _, _, rows in kinds):
        for i, ts in enumerate(picked):
            yield [tuple((X[rows[t][i]][None], y[rows[t][i]][None]) for X, y, rows in kinds) for t in ts]
        return
    iteration_bytes = sum(n_pick * rows[0].shape[1] * (X[:1].nbytes + y.itemsize) for X, y, rows in kinds)
    run = max(1, GATHER_BYTES // iteration_bytes)
    for first in range(0, EPISODE_BLOCK, run):
        its, stacks = slice(first, first + run), []
        for X, y, rows in kinds:
            index = np.take_along_axis(np.stack([r[its] for r in rows], axis=1), picked[its, :, None], axis=1)
            stacks.append(zip(X.take(index, axis=0), y.take(index, axis=0)))
        yield from ([episode] for episode in zip(*stacks))


def meta_train(
    spec: LearnerSpec,
    cfg: MetaConfig,
    train_tasks: list[TaskDataset],
    seed: int,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Episodic meta-training loop; returns the learned initialization and the
    per-iteration meta-loss curve. Deterministic per seed."""
    _check_tasks(spec, train_tasks)
    n_tasks = len(train_tasks)
    n_pick = n_tasks if cfg.tasks_per_iter is None else cfg.tasks_per_iter
    if n_pick > n_tasks:
        raise ValueError(f"tasks_per_iter={n_pick} exceeds the {n_tasks} available tasks")
    theta = init_params(spec, derive_seed(seed, "meta-init")) if theta0 is None else theta0.copy()
    _check_theta(spec, theta)
    opt_state = init_optimizer(cfg.optimizer, theta.size)
    curve: list[tuple[int, float]] = []
    for it in range(cfg.meta_iterations):
        if it % EPISODE_BLOCK == 0:
            block = _draw_block(train_tasks, n_pick, cfg.shots, spawn(seed, "meta-block", it // EPISODE_BLOCK))
        theta, opt_state, value = _meta_step(spec, theta, next(block), cfg, opt_state)
        curve.append((it, value))
    return theta, curve


def fine_tune(
    spec: LearnerSpec,
    theta_meta: np.ndarray,
    validation: Windows,
    finetune_lr: float,
    steps: int,
    optimizer: str = "sgd",
) -> np.ndarray:
    """A few optimizer steps on the mean squared validation loss."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    theta = theta_meta
    state = init_optimizer(optimizer, theta.size)
    for _ in range(steps):
        grad = gradient(spec, theta, validation, average=True)
        theta, state = optimizer_step(state, theta, grad, finetune_lr)
    return theta


def fine_tune_and_score(
    spec: LearnerSpec, theta: np.ndarray, bundle: DataBundle, cfg: MetaConfig, steps: int
) -> tuple[np.ndarray, float, float]:
    """Fine-tune ``theta`` on the validation slice for ``steps`` updates and
    return it with its validation and test MSE. Divergence ends in one
    NumericError, not numpy warnings."""
    with np.errstate(all="ignore"):
        theta = fine_tune(spec, theta, bundle.validation, cfg.finetune_lr, steps, cfg.optimizer)
        val_mse = loss(spec, theta, bundle.validation, average=True)
        test_mse = loss(spec, theta, bundle.test, average=True)
    if not (math.isfinite(val_mse) and math.isfinite(test_mse)):
        raise NumericError("evaluation produced a non-finite mean squared error")
    return theta, val_mse, test_mse


def total_gradient_steps(cfg: MetaConfig, n_train_tasks: int) -> int:
    """Parameter updates a full meta run performs (inner + outer + fine-tune);
    used to grant baselines an equal step budget."""
    n_pick = n_train_tasks if cfg.tasks_per_iter is None else min(cfg.tasks_per_iter, n_train_tasks)
    return cfg.meta_iterations * (n_pick * cfg.inner_steps + 1) + cfg.finetune_steps


def train_pipeline(
    config: PipelineConfig,
    bundle: DataBundle,
    seed: int,
    settings: MetaConfig = MetaConfig(),
) -> tuple[MetaResult, float]:
    """Run the full lower level for one configuration.

    Returns the MetaResult plus the test-slice MSE. Numeric blow-ups
    propagate as exceptions; use :func:`evaluate_pipeline` to capture them.
    """
    spec = LearnerSpec(family=config.family, input_dim=bundle.window, width=config.width)
    searched = {name: getattr(config, name) for name in SEARCHED_FIELDS}
    cfg = replace(settings, **searched, shots=settings.shots if config.shots is None else config.shots)
    with np.errstate(all="ignore"):
        theta_meta, curve = meta_train(spec, cfg, bundle.train_tasks, seed)
    theta_final, val_mse, test_mse = fine_tune_and_score(spec, theta_meta, bundle, cfg, cfg.finetune_steps)
    return MetaResult(theta_meta, theta_final, val_mse, curve), test_mse


def evaluate_pipeline(
    config: PipelineConfig,
    bundle: DataBundle,
    seed: int,
    settings: MetaConfig = MetaConfig(),
) -> EvaluationRecord:
    """Evaluate one configuration end to end; a NumericError becomes a "failed"
    record rather than an exception so the upper-level search survives
    divergent learning rates. Any other error propagates."""
    start = time.perf_counter()
    try:
        result, test_mse = train_pipeline(config, bundle, seed, settings)
        val_mse, status = result.val_mse, "ok"
    except NumericError:
        val_mse, test_mse, status = None, None, "failed"
    wall_ms = (time.perf_counter() - start) * 1000.0
    return EvaluationRecord(
        iteration=-1,  # the search loop sets its own
        config=config,
        val_mse=val_mse,
        test_mse=test_mse,
        seed=seed,
        wall_time_ms=wall_ms,
        status=status,
    )
