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
    gradient,
    init_optimizer,
    init_params,
    loss,
    optimizer_step,
    value_and_grad,
)
from .rng import derive_seed, spawn

LR_MIN, LR_MAX = 1e-4, 0.5


@dataclass(frozen=True)
class MetaConfig:
    """Hyperparameters of one lower-level run, validated on construction.

    The learning rates and optimizer default to the fixed-default baseline;
    a searched configuration replaces them (see ``_meta_config_for``).
    ``tasks_per_iter=None`` uses every source task each iteration; ``shots``
    is the number of support and query instances sampled per task per
    episode (a task pool smaller than that is used whole).
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
        for name in ("inner_lr", "outer_lr", "finetune_lr"):
            value = getattr(self, name)
            if not LR_MIN <= value <= LR_MAX:
                raise ValueError(f"{name} must lie in [{LR_MIN}, {LR_MAX}], got {value}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.tasks_per_iter is not None and self.tasks_per_iter < 1:
            raise ValueError(f"tasks_per_iter must be >= 1, got {self.tasks_per_iter}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.meta_iterations < 0:
            raise ValueError(f"meta_iterations must be >= 0, got {self.meta_iterations}")
        if self.finetune_steps < 1:
            raise ValueError(f"finetune_steps must be >= 1, got {self.finetune_steps}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")


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
        out = {
            "family": self.family,
            "width": self.width,
            "inner_lr": self.inner_lr,
            "outer_lr": self.outer_lr,
            "finetune_lr": self.finetune_lr,
            "optimizer": self.optimizer,
            "choices": list(self.choices),
        }
        if self.shots is not None:
            out["shots"] = self.shots
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

    def to_json(self, include_timing: bool = True) -> str:
        payload = {
            "iteration": self.iteration,
            "config": self.config.to_dict(),
            "val_mse": self.val_mse,
            "test_mse": self.test_mse,
            "seed": self.seed,
            "status": self.status,
        }
        if include_timing:
            payload["wall_time_ms"] = self.wall_time_ms
        return json.dumps(payload, sort_keys=True)


def inner_adapt(
    spec: LearnerSpec, theta: np.ndarray, support: Windows, inner_lr: float, steps: int = 1
) -> np.ndarray:
    """Task adaptation: plain gradient descent on the summed support loss."""
    if not support:
        raise ValueError("support set is empty")
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
    if not tasks:
        raise ValueError("task batch is empty")
    total_grad = np.zeros_like(theta)
    value = 0.0
    for task in tasks:
        theta_k = inner_adapt(spec, theta, task.support, cfg.inner_lr, cfg.inner_steps)
        if not task.query:
            raise ValueError(f"task {task.task_id!r} has an empty query set")
        task_loss, task_grad = value_and_grad(spec, theta_k, task.query)
        total_grad += task_grad
        value += task_loss
    theta_new, opt_state = optimizer_step(opt_state, theta, total_grad, cfg.outer_lr)
    return theta_new, opt_state, value


def _sample_pairs(pairs: Windows, k: int, rng) -> Windows:
    if k >= len(pairs):
        return pairs
    return pairs[rng.choice(len(pairs), size=k, replace=False)]


def meta_train(
    spec: LearnerSpec,
    cfg: MetaConfig,
    train_tasks: list[TaskDataset],
    seed: int,
    theta0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Episodic meta-training loop; returns the learned initialization and the
    per-iteration meta-loss curve. Deterministic per seed."""
    if not train_tasks:
        raise ValueError("no training tasks")
    n_tasks = len(train_tasks)
    n_pick = n_tasks if cfg.tasks_per_iter is None else cfg.tasks_per_iter
    if n_pick > n_tasks:
        raise ValueError(f"tasks_per_iter={n_pick} exceeds the {n_tasks} available tasks")
    theta = init_params(spec, derive_seed(seed, "meta-init")) if theta0 is None else theta0.copy()
    opt_state = init_optimizer(cfg.optimizer, theta.size)
    curve: list[tuple[int, float]] = []
    for it in range(cfg.meta_iterations):
        rng = spawn(seed, "meta-iter", it)
        picked = rng.choice(n_tasks, size=n_pick, replace=False)
        batch = []
        for t in picked:
            task = train_tasks[int(t)]
            batch.append(
                TaskDataset(
                    task_id=task.task_id,
                    support=_sample_pairs(task.support, cfg.shots, rng),
                    query=_sample_pairs(task.query, cfg.shots, rng),
                )
            )
        theta, opt_state, value = outer_step(spec, theta, batch, cfg, opt_state)
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
    if not validation:
        raise ValueError("validation set is empty")
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


def _meta_config_for(config: PipelineConfig, settings: MetaConfig) -> MetaConfig:
    return replace(
        settings,
        inner_lr=config.inner_lr,
        outer_lr=config.outer_lr,
        finetune_lr=config.finetune_lr,
        optimizer=config.optimizer,
        shots=config.shots if config.shots is not None else settings.shots,
    )


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
    cfg = _meta_config_for(config, settings)
    with np.errstate(all="ignore"):
        theta_meta, curve = meta_train(spec, cfg, bundle.train_tasks, seed)
    theta_final, val_mse, test_mse = fine_tune_and_score(spec, theta_meta, bundle, cfg, cfg.finetune_steps)
    return MetaResult(theta_meta, theta_final, val_mse, curve), test_mse


def evaluate_pipeline(
    config: PipelineConfig,
    bundle: DataBundle,
    seed: int,
    settings: MetaConfig = MetaConfig(),
    iteration: int = -1,
) -> EvaluationRecord:
    """Evaluate one configuration end to end; numeric divergence becomes a
    reward-0 record rather than an exception so the upper-level search
    survives divergent learning rates. Any other error propagates."""
    start = time.perf_counter()
    try:
        result, test_mse = train_pipeline(config, bundle, seed, settings)
        val_mse, status = result.val_mse, "ok"
    except (NumericError, FloatingPointError, OverflowError):
        val_mse, test_mse, status = None, None, "failed"
    wall_ms = (time.perf_counter() - start) * 1000.0
    return EvaluationRecord(
        iteration=iteration,
        config=config,
        val_mse=val_mse,
        test_mse=test_mse,
        seed=seed,
        wall_time_ms=wall_ms,
        status=status,
    )
