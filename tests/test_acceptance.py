"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
heavier criteria share fixtures so the whole module stays well inside the
stated runtime budgets.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fewcast.cli import main as cli_main
from fewcast.data import (
    TaskDataset,
    WindowPair,
    build_bundle,
    generate_synthetic_tasks,
)
from fewcast.learners import LearnerSpec, gradient, init_params, loss, n_params
from fewcast.meta import (
    EvaluationRecord,
    MetaConfig,
    PipelineConfig,
    evaluate_pipeline,
    fine_tune,
    meta_train,
    total_gradient_steps,
)
from fewcast.rng import derive_seed
from fewcast.search import build_search_space, random_search, search, space_size
from fewcast.stats import a12, categorize_a12, wilcoxon_signed_rank

SEED_LATTICE = list(range(10))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def default_bundle(seed):
    series = generate_synthetic_tasks("synthetic", 5, 168, seed=100 + seed)
    return build_bundle(series[:4], series[4], window=24, seed=seed)


MLP_CONFIG = dict(inner_lr=0.001, outer_lr=0.001, finetune_lr=0.003, optimizer="sgd")
META_ITERATIONS = 50


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for family in ("linear", "mlp", "recurrent"):
        for _ in range(100):
            dim = int(rng.integers(2, 11))
            width = int(rng.integers(1, 9))
            spec = LearnerSpec(family, input_dim=dim, width=width)
            theta = init_params(spec, seed=int(rng.integers(10_000)))
            theta = theta + 0.4 * rng.standard_normal(theta.size)
            data = [
                WindowPair(x=rng.standard_normal(dim), y=float(rng.standard_normal()))
                for _ in range(int(rng.integers(1, 6)))
            ]
            analytic = gradient(spec, theta, data)
            h = 1e-5
            numeric = np.zeros_like(theta)
            for i in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (loss(spec, up, data) - loss(spec, down, data)) / (2 * h)
            scale = np.maximum(np.abs(analytic), np.abs(numeric))
            gap = np.abs(analytic - numeric)
            ok_mask = gap <= np.maximum(1e-7, 1e-4 * scale)
            worst = max(worst, float(np.max(gap / np.maximum(1e-7, scale))))
            assert np.all(ok_mask), f"{family} gradient mismatch (dim={dim}, width={width})"
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(1, ok, f"analytic vs finite-difference gradients, 100 instances/family, {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 30s"


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_first_order_meta_semantics():
    spec = LearnerSpec("linear", input_dim=1)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        w, b = rng.standard_normal(2)
        x_s, y_s, x_q, y_q = rng.standard_normal(4)
        inner_lr, outer_lr = 0.04, 0.015
        task = TaskDataset(
            "t",
            support=[WindowPair(x=np.array([x_s]), y=y_s)],
            query=[WindowPair(x=np.array([x_q]), y=y_q)],
        )
        cfg = MetaConfig(
            inner_lr=inner_lr, outer_lr=outer_lr, finetune_lr=0.01,
            optimizer="sgd", tasks_per_iter=1, meta_iterations=1,
        )
        got, _ = meta_train(spec, cfg, [task], seed=0, theta0=np.array([w, b]))
        # hand-derived composite update: adapt on support, step from the
        # original parameters along the query gradient at the adapted point
        r_s = w * x_s + b - y_s
        w1 = w - inner_lr * 2 * r_s * x_s
        b1 = b - inner_lr * 2 * r_s
        r_q = w1 * x_q + b1 - y_q
        expected = np.array([w - outer_lr * 2 * r_q * x_q, b - outer_lr * 2 * r_q])
        worst = max(worst, float(np.max(np.abs(got - expected))))
    ok = worst < 1e-10
    report(2, ok, f"composite two-stage update matches hand derivation, max gap {worst:.2e}")
    assert ok


# ------------------------------------------------------- criteria 3 and 4


@pytest.fixture(scope="module")
def mlp_medians():
    """Test MSE medians for the meta pipeline at n_g in {1,2,10} plus the
    equal-step vanilla baseline, over the 10-seed lattice."""
    start = time.perf_counter()
    spec = LearnerSpec("mlp", input_dim=24, width=128)
    by_ng = {}
    for n_g in (1, 2, 10):
        cfg = MetaConfig(**MLP_CONFIG, meta_iterations=META_ITERATIONS, finetune_steps=n_g)
        scores = []
        for seed in SEED_LATTICE:
            bundle = default_bundle(seed)
            theta_meta, _ = meta_train(spec, cfg, bundle.train_tasks, seed=seed)
            theta = fine_tune(spec, theta_meta, bundle.validation, cfg.finetune_lr, n_g, "sgd")
            scores.append(loss(spec, theta, bundle.test, average=True))
        by_ng[n_g] = float(np.median(scores))
    cfg = MetaConfig(**MLP_CONFIG, meta_iterations=META_ITERATIONS, finetune_steps=1)
    steps = total_gradient_steps(cfg, 4)
    vanilla_scores = []
    for seed in SEED_LATTICE:
        bundle = default_bundle(seed)
        theta0 = init_params(spec, derive_seed(seed, "vanilla-init"))
        theta = fine_tune(spec, theta0, bundle.validation, cfg.finetune_lr, steps, "sgd")
        vanilla_scores.append(loss(spec, theta, bundle.test, average=True))
    return {
        "by_ng": by_ng,
        "vanilla": float(np.median(vanilla_scores)),
        "steps": steps,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_03_meta_beats_vanilla(mlp_medians):
    meta = mlp_medians["by_ng"][1]
    vanilla = mlp_medians["vanilla"]
    ok = meta <= 0.8 * vanilla and mlp_medians["elapsed"] < 300.0
    report(
        3,
        ok,
        f"meta median {meta:.5f} vs vanilla {vanilla:.5f} at {mlp_medians['steps']} equal steps "
        f"({100 * (1 - meta / vanilla):.0f}% better; {mlp_medians['elapsed']:.0f}s)",
    )
    assert meta <= 0.8 * vanilla
    assert mlp_medians["elapsed"] < 300.0


def test_criterion_04_finetune_steps_monotone(mlp_medians):
    m = mlp_medians["by_ng"]
    ok = m[2] <= 1.05 * m[1] and m[10] <= 1.05 * m[2]
    report(4, ok, f"median test MSE by n_g: 1->{m[1]:.5f} 2->{m[2]:.5f} 10->{m[10]:.5f}")
    assert ok


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_search_beats_fixed_defaults():
    start = time.perf_counter()
    fixed = PipelineConfig(
        family="linear", width=1, inner_lr=0.01, outer_lr=0.001, finetune_lr=0.05, optimizer="sgd"
    )
    space = build_search_space("linear", grid_resolution=8)
    settings = MetaConfig(meta_iterations=META_ITERATIONS)
    searched, baseline = [], []
    for seed in range(5):
        series = generate_synthetic_tasks("synthetic", 5, 168, seed=200 + seed)
        bundle = build_bundle(series[:4], series[4], window=24, seed=seed)
        _, trajectory = search(space, bundle, budget=100, seed=seed, settings=settings)
        searched.append(trajectory.best_record().test_mse)
        record = evaluate_pipeline(fixed, bundle, seed, settings=settings)
        baseline.append(record.test_mse if record.status == "ok" else float("inf"))
    elapsed = time.perf_counter() - start
    med_s, med_b = float(np.median(searched)), float(np.median(baseline))
    ok = med_s <= med_b and elapsed < 600.0
    report(5, ok, f"searched median {med_s:.5f} <= fixed-default median {med_b:.5g} ({elapsed:.0f}s)")
    assert med_s <= med_b
    assert elapsed < 600.0


# ---------------------------------------------------------------- criterion 6


MOCK_WEIGHTS = (0.0, 0.3, 0.2, 0.1, 0.05)


def mock_target(space):
    return tuple(min(2, len(level.options) - 1) if i % 2 == 0 else 0 for i, level in enumerate(space.levels))


def make_mock_evaluator(space):
    target = mock_target(space)

    def evaluator(config, bundle, seed):
        m = float(sum(w * abs(c - t) for w, c, t in zip(MOCK_WEIGHTS, config.choices, target)))
        return EvaluationRecord(
            iteration=-1, config=config, val_mse=m, test_mse=m, seed=seed, wall_time_ms=0.0, status="ok"
        )

    return evaluator, target


def test_criterion_06_mcts_vs_random_search():
    space = build_search_space("linear", grid_resolution=3, kappa=0.7, c_uct=0.5)
    evaluator, target = make_mock_evaluator(space)
    budget = 3 * space_size(space)
    hits_mcts = hits_random = 0
    curves_mcts, curves_random = [], []
    for seed in range(20):
        best_m, traj_m = search(space, None, budget, seed, evaluator=evaluator)
        best_r, traj_r = random_search(space, None, budget, seed, evaluator=evaluator)
        hits_mcts += best_m.choices == target
        hits_random += best_r.choices == target
        curves_mcts.append(traj_m.best_so_far())
        curves_random.append(traj_r.best_so_far())
    mean_mcts = np.mean(curves_mcts, axis=0)
    mean_random = np.mean(curves_random, axis=0)
    dominated = bool(np.all(mean_mcts[10:] <= mean_random[10:] + 1e-12))
    ok = hits_mcts >= hits_random and dominated
    report(
        6,
        ok,
        f"optimum hits {hits_mcts}/20 vs random {hits_random}/20 at budget {budget}; "
        f"mean best-so-far dominates from iteration 10: {dominated}",
    )
    assert hits_mcts >= hits_random
    assert dominated


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_plateau_behavior():
    start = time.perf_counter()
    space = build_search_space("linear", grid_resolution=8)
    settings = MetaConfig(meta_iterations=META_ITERATIONS)
    rels = []
    for seed in range(3):
        series = generate_synthetic_tasks("synthetic", 5, 168, seed=300 + seed)
        bundle = build_bundle(series[:4], series[4], window=24, seed=seed)
        _, trajectory = search(space, bundle, budget=300, seed=seed, settings=settings)
        curve = trajectory.best_so_far()
        rels.append((curve[199] - curve[299]) / curve[299])
    elapsed = time.perf_counter() - start
    median_rel = float(np.median(rels))
    ok = median_rel < 0.05 and elapsed < 900.0
    report(7, ok, f"median relative improvement over final third {median_rel:.4f} ({elapsed:.0f}s)")
    assert median_rel < 0.05
    assert elapsed < 900.0


# ---------------------------------------------------------------- criterion 8


def brute_force_a12(a, b):
    more = sum(1 for x in a for y in b if x > y)
    same = sum(1 for x in a for y in b if x == y)
    return (more + 0.5 * same) / (len(a) * len(b))


def enumeration_wilcoxon_p(a, b):
    diffs = [x - y for x, y in zip(a, b)]
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return 1.0
    order = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = min(
        sum(r for r, d in zip(ranks, nonzero) if d > 0),
        sum(r for r, d in zip(ranks, nonzero) if d < 0),
    )
    total = sum(ranks)
    hits = sum(
        1
        for signs in itertools.product((0, 1), repeat=n)
        if min(sum(r for r, s in zip(ranks, signs) if s), total - sum(r for r, s in zip(ranks, signs) if s))
        <= w_obs
    )
    return hits / 2.0**n


def test_criterion_08_statistics_oracles():
    rng = np.random.default_rng(888)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = rng.integers(0, 8, size=n).astype(float)
        b = rng.integers(0, 8, size=n).astype(float)
        got = wilcoxon_signed_rank(a, b).p_value
        expected = enumeration_wilcoxon_p(list(a), list(b))
        worst_gap = max(worst_gap, abs(got - expected))
        assert abs(got - expected) <= 1e-12
    for _ in range(200):
        na, nb = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        a = rng.integers(0, 5, size=na).astype(float)
        b = rng.integers(0, 5, size=nb).astype(float)
        assert a12(a, b).value == brute_force_a12(list(a), list(b))
    boundary_ok = (
        categorize_a12(0.56) == "small"
        and categorize_a12(0.64) == "medium"
        and categorize_a12(0.71) == "large"
        and categorize_a12(0.5599999) == "equal"
        and categorize_a12(0.6399999) == "small"
        and categorize_a12(0.7099999) == "medium"
    )
    ok = worst_gap <= 1e-12 and boundary_ok
    report(8, ok, f"wilcoxon exact == enumeration (max gap {worst_gap:.1e}); a12 == brute force; thresholds hold")
    assert boundary_ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_mcts_structural_invariants():
    import math

    from fewcast.rng import derive_seed, spawn
    from fewcast.search import TreeNode, _one_iteration, backpropagate, reward_from_mse, rollout

    space = build_search_space("mlp", grid_resolution=4, kappa=0.5)
    evaluator, _ = make_mock_evaluator(space)

    root = TreeNode(level=0)
    tree_rng = spawn(41, "tree")
    rewards = []
    for it in range(500):
        path, prefix = _one_iteration(root, space, tree_rng)
        config = rollout(prefix, space, tree_rng)
        record = evaluator(config, None, derive_seed(41, "eval", it))
        reward = reward_from_mse(record.test_mse)
        backpropagate(path, reward, config)
        rewards.append(reward)

    assert root.visit_count == 500
    assert abs(root.total_reward - sum(rewards)) < 1e-9
    stack, n_nodes = [root], 0
    structure_ok = True
    while stack:
        node = stack.pop()
        n_nodes += 1
        child_visits = sum(c.visit_count for c in node.children)
        structure_ok &= node.visit_count >= child_visits
        structure_ok &= node.total_reward >= sum(c.total_reward for c in node.children) - 1e-9
        structure_ok &= len(node.children) <= math.ceil(node.visit_count**space.kappa - 1e-9) + 1
        if node.level < len(space.levels):
            structure_ok &= len(node.children) <= len(space.levels[node.level].options)
        else:
            structure_ok &= not node.children
        stack.extend(node.children)

    _, traj_a = search(space, None, budget=500, seed=41, evaluator=evaluator)
    _, traj_b = search(space, None, budget=500, seed=41, evaluator=evaluator)
    identical = traj_a.to_jsonl() == traj_b.to_jsonl()

    ok = structure_ok and identical
    report(9, ok, f"tree of {n_nodes} nodes consistent after 500 iterations; repeated-seed trajectories identical")
    assert structure_ok
    assert identical


# --------------------------------------------------------------- criterion 10


def test_criterion_10_end_to_end_determinism(tmp_path):
    def chain(base: Path):
        data, srch, train, pred, comp = (base / p for p in ("data", "search", "train", "predict", "compare"))
        assert cli_main(["generate", "--kind", "synthetic", "--seed", "11", "--out", str(data)]) == 0
        assert cli_main([
            "search", "--data", str(data), "--family", "linear", "--budget", "10",
            "--seed", "5", "--out", str(srch), "--meta-iterations", "25",
        ]) == 0
        assert cli_main([
            "train", "--data", str(data), "--family", "linear", "--inner-lr", "0.001",
            "--outer-lr", "0.001", "--finetune-lr", "0.003", "--seed", "5",
            "--out", str(train), "--meta-iterations", "25",
        ]) == 0
        assert cli_main([
            "predict", "--checkpoint", str(train / "seed_5"), "--data", str(data), "--out", str(pred),
        ]) == 0
        assert cli_main(["compare", str(train), str(srch), "--out", str(comp)]) == 0
        files = {}
        for pattern in ("**/*.csv", "**/*.jsonl"):
            for path in sorted(base.glob(pattern)):
                files[str(path.relative_to(base))] = path.read_bytes()
        return files

    first = chain(tmp_path / "run_a")
    second = chain(tmp_path / "run_b")
    same_names = sorted(first) == sorted(second)
    same_bytes = same_names and all(first[name] == second[name] for name in first)
    ok = same_bytes and len(first) >= 8
    report(10, ok, f"{len(first)} csv/jsonl artifacts byte-identical across two chained runs")
    assert same_names
    assert same_bytes
