"""Per-layer microbenchmarks of the fewcast modules, timed in isolation.

Inputs come from ``build_bundle`` outputs, never from hand-built pairs, so
a change to the data path is measured on the data the CLI really feeds the
layers. Every layer function is looked up by name when it is measured: one
that is missing, or whose signature changed, makes its metrics absent (with
the reason) instead of failing the run.

Widths: the learner grid covers linear, mlp 128/512/1024 and recurrent
128/512 at batches 10 (a meta-training shot set) and 115 (the validation
slice). The meta-level metrics use linear, mlp-512 and recurrent-128, the
optimizer steps the mlp-1024 parameter count.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
from time import perf_counter

import numpy as np

# By module path: the package namespace re-exports a function named ``search``.
data, learners, meta, rng, search, stats = (
    importlib.import_module(f"fewcast.{name}") for name in ("data", "learners", "meta", "rng", "search", "stats")
)

GRID = (("linear", 1), ("mlp", 128), ("mlp", 512), ("mlp", 1024), ("recurrent", 128), ("recurrent", 512))
META_WIDTHS = {"linear": 1, "mlp": 512, "recurrent": 128}
OPTIMIZERS = ("sgd", "adam", "rmsprop", "adadelta", "adagrad")
INNER_LR, OUTER_LR, FINETUNE_LR = 0.01, 0.001, 0.05  # the CLI's fixed defaults
SHOTS = 10
META_ITERS = 2
BUDGET_S = 0.05  # timing budget of one layer metric
ROUNDS, SLOW_ROUNDS = 5, 3


def per_call_s(fn) -> float:
    """Median over ``ROUNDS`` of the mean time of one call, with enough calls
    per round that a round lasts about ``BUDGET_S / ROUNDS``; a call longer
    than ``BUDGET_S`` gets ``SLOW_ROUNDS`` rounds of one call. The first call
    only warms up."""
    start = perf_counter()
    fn()
    once = perf_counter() - start
    rounds = SLOW_ROUNDS if once > BUDGET_S else ROUNDS
    reps = max(1, int(BUDGET_S / rounds / max(once, 1e-7)))
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - start) / reps)
    return statistics.median(samples)


def _mock_evaluator(config, bundle, seed):
    """Deterministic stand-in for a pipeline evaluation: MSE from the choices."""
    key = sum((i + 1) * c for i, c in enumerate(config.choices))
    value = 0.01 + (key % 17) / 170.0
    return meta.EvaluationRecord(
        iteration=-1, config=config, val_mse=value, test_mse=value, seed=seed, wall_time_ms=0.0, status="ok"
    )


def measure(data_dir, seed: int) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Time every layer metric; returns ``({name: (value, unit)}, {name: why absent})``."""
    metrics: dict[str, tuple[float, str]] = {}
    absent: dict[str, str] = {}

    def record(name: str, unit: str, scale: float, fn) -> None:
        try:
            metrics[name] = (per_call_s(fn) * scale, unit)
        except Exception as exc:  # a layer that moved or changed shape is reported, not fatal
            absent[name] = f"{type(exc).__name__}: {exc}"

    paths = sorted(data_dir.glob("train_*.csv")) + [data_dir / "target.csv"]
    record("data.load_csv_ms", "ms", 1e3, lambda: [data.load_csv(p) for p in paths])
    series = [s for p in paths for s in data.load_csv(p)]
    train_series, target = series[:-1], series[-1]
    record("data.build_bundle_ms", "ms", 1e3, lambda: data.build_bundle(train_series, target, seed=seed))
    bundle = data.build_bundle(train_series, target, seed=seed)
    batches = {10: bundle.train_tasks[0].support[:SHOTS], 115: bundle.validation}
    for b, pairs in batches.items():
        record(f"data.pairs_to_arrays_us.b{b}", "us", 1e6, lambda: data.pairs_to_arrays(pairs))

    # Stacked here rather than by pairs_to_arrays, so that the forward
    # timings outlive that function.
    inputs = {}
    for b, pairs in batches.items():
        try:
            inputs[b] = np.stack([p.x for p in pairs])
        except Exception as exc:
            absent[f"inputs.b{b}"] = f"{type(exc).__name__}: {exc}"
    for family, width in GRID:
        spec = learners.LearnerSpec(family=family, input_dim=bundle.window, width=width)
        theta = learners.init_params(spec, seed)
        for b, pairs in batches.items():
            tag = f"{family}.w{width}.b{b}"
            record(f"learners.forward_us.{tag}", "us", 1e6, lambda: learners.forward(spec, theta, inputs[b]))
            record(f"learners.gradient_us.{tag}", "us", 1e6, lambda: learners.gradient(spec, theta, pairs))

    spec = learners.LearnerSpec(family="mlp", input_dim=bundle.window, width=1024)
    theta = learners.init_params(spec, seed)
    grad = learners.gradient(spec, theta, bundle.validation, average=True)
    for opt in OPTIMIZERS:
        state = learners.init_optimizer(opt, theta.size)
        record(
            f"learners.optimizer_step_us.{opt}", "us", 1e6,
            lambda: learners.optimizer_step(state, theta, grad, OUTER_LR),
        )

    cfg = meta.MetaConfig(inner_lr=INNER_LR, outer_lr=OUTER_LR, finetune_lr=FINETUNE_LR, shots=SHOTS)
    episode = [dataclasses.replace(t, support=t.support[:SHOTS], query=t.query[:SHOTS]) for t in bundle.train_tasks]
    for family, width in META_WIDTHS.items():
        spec = learners.LearnerSpec(family=family, input_dim=bundle.window, width=width)
        theta = learners.init_params(spec, seed)
        record(
            f"meta.inner_adapt_us.{family}", "us", 1e6,
            lambda: meta.inner_adapt(spec, theta, episode[0].support, INNER_LR),
        )
        state = learners.init_optimizer(cfg.optimizer, theta.size)
        record(f"meta.outer_step_us.{family}", "us", 1e6, lambda: meta.outer_step(spec, theta, episode, cfg, state))
        short = dataclasses.replace(cfg, meta_iterations=META_ITERS)
        record(
            f"meta.meta_train_iter_ms.{family}", "ms", 1e3 / META_ITERS,
            lambda: meta.meta_train(spec, short, bundle.train_tasks, seed),
        )
        record(
            f"meta.fine_tune_ms.{family}", "ms", 1e3,
            lambda: meta.fine_tune(spec, theta, bundle.validation, FINETUNE_LR, 1, cfg.optimizer),
        )

    space = search.build_search_space("mlp")
    for budget in (300, 3000):
        record(
            f"search.tree_us_per_iter.b{budget}", "us", 1e6 / budget,
            lambda: search.search(space, bundle, budget, seed, evaluator=_mock_evaluator),
        )

    record("rng.spawn_us", "us", 1e6, lambda: rng.spawn(seed, "meta-iter", 7))

    gen = np.random.default_rng(seed)
    for n, name, unit, scale, fn in (
        (12, "stats.wilcoxon_ms.n12", "ms", 1e3, stats.wilcoxon_signed_rank),
        (30, "stats.wilcoxon_ms.n30", "ms", 1e3, stats.wilcoxon_signed_rank),
        (30, "stats.a12_us.n30", "us", 1e6, stats.a12),
    ):
        a, b = gen.uniform(0.01, 0.1, n), gen.uniform(0.01, 0.1, n)
        record(name, unit, scale, lambda: fn(a, b))
    return metrics, absent
