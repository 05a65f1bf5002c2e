import contextlib
import json
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from fewcast import meta
from fewcast.data import (
    TaskDataset,
    WindowPair,
    build_bundle,
    csv_text,
    generate_synthetic_tasks,
    load_csv,
    normalize,
)
from fewcast.learners import (
    OPTIMIZERS,
    LearnerSpec,
    gradient,
    init_optimizer,
    init_params,
    loss,
    optimizer_step,
)
from fewcast.meta import (
    EvaluationRecord,
    MetaConfig,
    PipelineConfig,
    evaluate_pipeline,
    fine_tune,
    inner_adapt,
    meta_train,
    outer_step,
    total_gradient_steps,
    train_pipeline,
)
from fewcast.rng import derive_seed, spawn
from fewcast.search import build_search_space, search

LINEAR_1D = LearnerSpec("linear", input_dim=1)


def pair(x, y):
    return WindowPair(x=np.asarray(x, dtype=np.float64), y=float(y))


def cfg_sgd(**kw):
    defaults = dict(inner_lr=0.01, outer_lr=0.01, finetune_lr=0.01, optimizer="sgd")
    defaults.update(kw)
    return MetaConfig(**defaults)


def synthetic_bundle(seed=42):
    series = generate_synthetic_tasks("synthetic", 5, 168, seed=seed)
    return build_bundle(series[:4], series[4], window=24, seed=seed), series[4]


BLOCK = 50  # meta-iterations drawn from one stream: part of the stream rule


def draw_episodes(seed, iterations, tasks, n_pick, shots):
    """The episode draw, written task by task. Block ``j`` of ``BLOCK``
    meta-iterations reads only ``spawn(seed, "meta-block", j)`` and is drawn in
    full: the task picks (the first ``n_pick`` of a stable argsort of one
    uniform key per task), then every task's support keys in task order, then
    its query keys. An episode takes the rows of the ``shots`` smallest keys,
    in ascending row order. Yields each iteration's (task, support rows,
    query rows) in pick order."""
    for it in range(iterations):
        if it % BLOCK == 0:
            rng = spawn(seed, "meta-block", it // BLOCK)
            picks = rng.random((BLOCK, len(tasks))).argsort(axis=1, kind="stable")[:, :n_pick]
            support_keys = [rng.random((BLOCK, len(task.support))) for task in tasks]
            query_keys = [rng.random((BLOCK, len(task.query))) for task in tasks]
        i = it % BLOCK
        yield [
            (tasks[t], np.sort(support_keys[t][i].argsort(kind="stable")[:shots]),
             np.sort(query_keys[t][i].argsort(kind="stable")[:shots]))
            for t in picks[i]
        ]


def per_task_meta_train(spec, cfg, tasks, seed, pairs=False):
    """Oracle for ``meta_train``: ``inner_adapt`` on each picked task's drawn
    support rows, then ``loss`` and ``gradient`` on its drawn query rows, one
    task at a time. The rows are ``pool[idx]``, or with ``pairs`` set, lists of
    pairs that the learners stack per call."""
    theta = init_params(spec, derive_seed(seed, "meta-init"))
    state = init_optimizer(cfg.optimizer, theta.size)
    curve = []
    n_pick = cfg.tasks_per_iter or len(tasks)
    for it, episodes in enumerate(draw_episodes(seed, cfg.meta_iterations, tasks, n_pick, cfg.shots)):
        total, value = np.zeros_like(theta), 0.0
        for task, support_rows, query_rows in episodes:
            support, query = task.support[support_rows], task.query[query_rows]
            if pairs:
                support, query = list(support), list(query)
            theta_k = inner_adapt(spec, theta, support, cfg.inner_lr, cfg.inner_steps)
            total += gradient(spec, theta_k, query)
            value += loss(spec, theta_k, query)
        theta, state = optimizer_step(state, theta, total, cfg.outer_lr)
        curve.append((it, value))
    return theta, curve


def unequal_bundle(tmp_path):
    """Source tasks of 168, 120 and 96 hours read back from a task CSV, so
    their support and query pools differ in length."""
    series = [
        replace(s, values=s.values[:hours])
        for s, hours in zip(generate_synthetic_tasks("synthetic", 4, 168, seed=9), (168, 120, 96, 168))
    ]
    path = tmp_path / "tasks.csv"
    path.write_text(csv_text(series), encoding="utf-8")
    loaded = load_csv(path)
    return build_bundle(loaded[:3], loaded[3], window=24, seed=9)


class TestInnerAdapt:
    def test_zero_lr_rejected(self):
        with pytest.raises(ValueError):
            inner_adapt(LINEAR_1D, np.zeros(2), [pair([1.0], 1.0)], inner_lr=0.0)

    def test_hand_derived_single_step(self):
        # gradient at zero is [-2, -2]; one step of 0.1 lands on [0.2, 0.2]
        adapted = inner_adapt(LINEAR_1D, np.zeros(2), [pair([1.0], 1.0)], inner_lr=0.1, steps=1)
        assert np.allclose(adapted, [0.2, 0.2])

    def test_noop_at_optimum(self):
        theta = np.array([1.0, 0.0])
        adapted = inner_adapt(LINEAR_1D, theta, [pair([3.0], 3.0)], inner_lr=0.1)
        assert np.array_equal(adapted, theta)

    def test_does_not_mutate_input(self):
        theta = np.zeros(2)
        inner_adapt(LINEAR_1D, theta, [pair([1.0], 1.0)], inner_lr=0.1)
        assert np.all(theta == 0.0)


class TestMetaLoss:
    """The meta-loss ``outer_step`` returns. Each support pair has zero
    residual at ``theta``, so the adapted parameters equal ``theta``."""

    def meta_loss(self, theta, tasks):
        return outer_step(LINEAR_1D, theta, tasks, cfg_sgd(), init_optimizer("sgd", 2))[2]

    def test_perfect_tasks_zero(self):
        theta = np.array([1.0, 0.0])
        tasks = [TaskDataset(t, support=[pair([x], x)], query=[pair([x], x)]) for t, x in (("a", 2.0), ("b", 5.0))]
        assert self.meta_loss(theta, tasks) == 0.0

    def test_additivity(self):
        theta = np.zeros(2)
        one = [TaskDataset("one", support=[pair([0.0], 0.0)], query=[pair([0.0], 1.0)])]  # loss 1
        two = [TaskDataset("two", support=[pair([0.0], 0.0)], query=[pair([0.0], 2.0)])]  # loss 4
        assert self.meta_loss(theta, one + two) == 5.0

    def test_single_task_reduces_to_loss(self):
        theta = np.array([0.5, -0.1])
        query = [pair([1.0], 0.7), pair([-2.0], 0.1)]
        task = TaskDataset("t", support=[pair([0.0], -0.1)], query=query)
        assert self.meta_loss(theta, [task]) == loss(LINEAR_1D, theta, query)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.meta_loss(np.zeros(2), [])


def two_stage_oracle(w, b, x_s, y_s, x_q, y_q, inner_lr, outer_lr):
    """Hand-derived composite update for the 2-parameter linear learner with
    one support and one query pair (plain sgd both stages)."""
    r_s = w * x_s + b - y_s
    w1 = w - inner_lr * 2.0 * r_s * x_s
    b1 = b - inner_lr * 2.0 * r_s
    r_q = w1 * x_q + b1 - y_q
    return w - outer_lr * 2.0 * r_q * x_q, b - outer_lr * 2.0 * r_q


class TestOuterStep:
    def test_zero_query_gradients_noop(self):
        theta = np.array([1.0, 0.0])
        task = TaskDataset("t", support=[pair([2.0], 2.0)], query=[pair([4.0], 4.0)])
        cfg = cfg_sgd()
        new, _, value = outer_step(LINEAR_1D, theta, [task], cfg, init_optimizer("sgd", 2))
        assert np.array_equal(new, theta)
        assert value == 0.0

    def test_matches_symbolic_oracle(self):
        w, b = 0.1, -0.2
        x_s, y_s, x_q, y_q = 0.5, 1.2, -0.7, 0.3
        cfg = cfg_sgd(inner_lr=0.05, outer_lr=0.02)
        task = TaskDataset("t", support=[pair([x_s], y_s)], query=[pair([x_q], y_q)])
        new, _, _ = outer_step(LINEAR_1D, np.array([w, b]), [task], cfg, init_optimizer("sgd", 2))
        expected = two_stage_oracle(w, b, x_s, y_s, x_q, y_q, 0.05, 0.02)
        assert np.max(np.abs(new - np.array(expected))) < 1e-12

    def test_duplicated_task_doubles_gradient(self):
        theta = np.array([0.3, 0.1])
        task = TaskDataset("t", support=[pair([1.0], 2.0)], query=[pair([0.5], 1.0)])
        cfg = cfg_sgd(inner_lr=0.01, outer_lr=0.01)
        once, _, _ = outer_step(LINEAR_1D, theta, [task], cfg, init_optimizer("sgd", 2))
        twice, _, _ = outer_step(LINEAR_1D, theta, [task, task], cfg, init_optimizer("sgd", 2))
        assert np.allclose(twice - theta, 2.0 * (once - theta))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            outer_step(LINEAR_1D, np.zeros(2), [], cfg_sgd(), init_optimizer("sgd", 2))

    def test_wrong_parameter_count_rejected(self):
        task = TaskDataset("t", support=[pair([1.0], 2.0)], query=[pair([0.5], 1.0)])
        with pytest.raises(ValueError, match="spec requires"):
            outer_step(LINEAR_1D, np.zeros(3), [task], cfg_sgd(), init_optimizer("sgd", 3))

    @pytest.mark.parametrize("family", ["linear", "mlp", "recurrent"])
    def test_unequal_pools_match_per_task_oracle(self, tmp_path, family):
        # pools of 115/77/58 support and 29/19/14 query rows, used whole: inner_adapt, then
        # loss and gradient on each task, summed in task order, give the same bits
        tasks = unequal_bundle(tmp_path).train_tasks
        spec = LearnerSpec(family, input_dim=24, width=8)
        cfg = cfg_sgd(inner_lr=0.003, outer_lr=0.002, optimizer="adam", inner_steps=2)
        theta = init_params(spec, 5)
        total, value = np.zeros_like(theta), 0.0
        for task in tasks:
            adapted = inner_adapt(spec, theta, task.support, cfg.inner_lr, cfg.inner_steps)
            total += gradient(spec, adapted, task.query)
            value += loss(spec, adapted, task.query)
        expected, _ = optimizer_step(init_optimizer("adam", theta.size), theta, total, cfg.outer_lr)
        got, _, got_value = outer_step(spec, theta, tasks, cfg, init_optimizer("adam", theta.size))
        assert got.tobytes() == expected.tobytes()
        assert got_value == value


class TestMetaTrain:
    def test_zero_iterations_returns_init(self):
        task = TaskDataset("t", support=[pair([1.0], 1.0)], query=[pair([2.0], 2.0)])
        theta0 = np.array([0.4, -0.6])
        theta, curve = meta_train(LINEAR_1D, cfg_sgd(meta_iterations=0), [task], seed=0, theta0=theta0)
        assert np.array_equal(theta, theta0)
        assert curve == []

    def test_windows_and_pair_lists_train_identically(self):
        # rows drawn by index from the bundle's Windows against the same rows
        # drawn into lists of pairs, which the learners stack per call
        bundle, _ = synthetic_bundle()
        spec = LearnerSpec("mlp", input_dim=24, width=16)
        cfg = cfg_sgd(meta_iterations=5, shots=5, optimizer="adam")
        runs = []
        for (theta, curve), validation in (
            (meta_train(spec, cfg, bundle.train_tasks, seed=3), bundle.validation),
            (per_task_meta_train(spec, cfg, bundle.train_tasks, seed=3, pairs=True), list(bundle.validation)),
        ):
            theta = fine_tune(spec, theta, validation, finetune_lr=0.01, steps=2, optimizer=cfg.optimizer)
            runs.append((theta.tobytes(), curve))
        assert runs[0] == runs[1]

    def test_single_task_single_iteration_equals_outer_step(self):
        task = TaskDataset("t", support=[pair([0.5], 1.0)], query=[pair([1.5], 0.2)])
        cfg = cfg_sgd(meta_iterations=1, tasks_per_iter=1, shots=10)
        theta0 = np.array([0.2, 0.1])
        via_meta, curve = meta_train(LINEAR_1D, cfg, [task], seed=3, theta0=theta0)
        direct, _, value = outer_step(LINEAR_1D, theta0, [task], cfg, init_optimizer("sgd", 2))
        assert np.array_equal(via_meta, direct)
        assert curve == [(0, value)]

    def test_determinism(self):
        bundle, _ = synthetic_bundle()
        spec = LearnerSpec("linear", input_dim=24)
        cfg = cfg_sgd(inner_lr=0.001, outer_lr=0.001, meta_iterations=5)
        a, _ = meta_train(spec, cfg, bundle.train_tasks, seed=11)
        b, _ = meta_train(spec, cfg, bundle.train_tasks, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_curve_length_matches_iterations(self):
        bundle, _ = synthetic_bundle()
        spec = LearnerSpec("linear", input_dim=24)
        _, curve = meta_train(spec, cfg_sgd(inner_lr=0.001, outer_lr=0.001, meta_iterations=7), bundle.train_tasks, seed=0)
        assert len(curve) == 7

    def test_tasks_per_iter_validated(self):
        task = TaskDataset("t", support=[pair([1.0], 1.0)], query=[pair([2.0], 2.0)])
        with pytest.raises(ValueError):
            meta_train(LINEAR_1D, cfg_sgd(tasks_per_iter=2), [task], seed=0)

    @pytest.mark.parametrize("family", ["linear", "mlp", "recurrent"])
    def test_tasks_of_another_window_rejected(self, family):
        # window-24 tasks against an input_dim-12 spec: a recurrent spec once meta-trained on them silently
        tasks = synthetic_bundle()[0].train_tasks
        spec = LearnerSpec(family, input_dim=12, width=8)
        theta, message = init_params(spec, 0), re.escape("task windows have widths [24]; spec requires 12")
        with pytest.raises(ValueError, match=message):
            meta_train(spec, cfg_sgd(meta_iterations=1), tasks, seed=0)
        with pytest.raises(ValueError, match=message):
            outer_step(spec, theta, tasks, cfg_sgd(), init_optimizer("sgd", theta.size))

    @pytest.mark.parametrize("shape", [(216,), (1, 209)])
    def test_theta0_of_the_wrong_shape_rejected(self, shape):
        # as outer_step rejects it, before any pass broadcasts it against the task axis
        bundle, _ = synthetic_bundle()
        spec = LearnerSpec("mlp", input_dim=24, width=8)
        with pytest.raises(ValueError, match=re.escape(f"parameter vector has shape {shape}; spec requires (209,)")):
            meta_train(spec, cfg_sgd(meta_iterations=1), bundle.train_tasks, seed=0, theta0=np.zeros(shape))

    def test_first_order_consistency(self):
        # composite update theta - outer_lr * grad_q(theta') with
        # theta' = theta - inner_lr * grad_s(theta), checked end to end
        rng = np.random.default_rng(17)
        for _ in range(20):
            w, b = rng.standard_normal(2)
            x_s, y_s, x_q, y_q = rng.standard_normal(4)
            task = TaskDataset("t", support=[pair([x_s], y_s)], query=[pair([x_q], y_q)])
            cfg = cfg_sgd(inner_lr=0.03, outer_lr=0.07, meta_iterations=1, tasks_per_iter=1)
            got, _ = meta_train(LINEAR_1D, cfg, [task], seed=0, theta0=np.array([w, b]))
            expected = two_stage_oracle(w, b, x_s, y_s, x_q, y_q, 0.03, 0.07)
            assert np.max(np.abs(got - np.array(expected))) < 1e-10


EPISODES = {"tasks_per_iter_2_of_4": dict(tasks_per_iter=2), "whole_pools": dict(shots=500),
            "inner_steps_3": dict(inner_steps=3)}


class TestEpisodeDraw:
    """Every family takes each meta-iteration as passes stacked over the task
    axis; the per-task oracle runs the same drawn rows one task at a time and
    must give the same bits."""

    @staticmethod
    @contextlib.contextmanager
    def passes(monkeypatch, family):
        """Records the task-axis length of every pass meta-training makes. The
        table is the one ``learners`` uses too, so it is patched only around
        ``meta_train``, never around the per-task oracle."""
        lengths, original = [], meta.RESIDUALS_AND_GRADIENTS[family]

        def counted(spec, theta, X, y):
            lengths.append(len(X) if X.ndim == 3 else "unstacked")
            return original(spec, theta, X, y)

        with monkeypatch.context() as patch:
            patch.setitem(meta.RESIDUALS_AND_GRADIENTS, family, counted)
            yield lengths

    def assert_stacked_matches_oracle(self, monkeypatch, spec, optimizer, episode):
        bundle, _ = synthetic_bundle()
        cfg = cfg_sgd(inner_lr=0.003, outer_lr=0.002, optimizer=optimizer, meta_iterations=6, **EPISODES[episode])
        expected_theta, expected_curve = per_task_meta_train(spec, cfg, bundle.train_tasks, seed=21)
        with self.passes(monkeypatch, spec.family) as lengths:
            theta, curve = meta_train(spec, cfg, bundle.train_tasks, seed=21)
        n_pick = cfg.tasks_per_iter or len(bundle.train_tasks)
        assert lengths == [n_pick] * (cfg.meta_iterations * (cfg.inner_steps + 1))
        assert theta.tobytes() == expected_theta.tobytes()
        assert curve == expected_curve

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("episode", EPISODES)
    def test_stacked_linear_step_matches_per_task_oracle(self, monkeypatch, optimizer, episode):
        self.assert_stacked_matches_oracle(monkeypatch, LearnerSpec("linear", input_dim=24), optimizer, episode)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    @pytest.mark.parametrize("episode", EPISODES)
    @pytest.mark.parametrize("family, width", [("mlp", 8), ("recurrent", 4)])
    def test_stacked_step_matches_per_task_oracle(self, monkeypatch, family, width, optimizer, episode):
        spec = LearnerSpec(family, input_dim=24, width=width)
        self.assert_stacked_matches_oracle(monkeypatch, spec, optimizer, episode)

    @pytest.mark.parametrize("family", ["linear", "mlp", "recurrent"])
    def test_unequal_pools_train_per_task(self, tmp_path, monkeypatch, family):
        # Pools of 115/77/58 support and 29/19/14 query rows. At shots 10 every
        # episode has 10 rows and takes one 2-task stack although the pools
        # differ in length. At shots 20 the short query pools differ, and at
        # shots 500 every pool is used whole: both run one stack per task.
        # Two runs of 5 iterations, each a support and a query pass per stack.
        bundle = unequal_bundle(tmp_path)
        assert len({len(task.support) for task in bundle.train_tasks}) == 3
        spec = LearnerSpec(family, input_dim=24, width=8)
        for shots, expected_passes in ((10, [2] * 20), (20, [1] * 40), (500, [1] * 40)):
            cfg = cfg_sgd(inner_lr=0.003, outer_lr=0.002, optimizer="adam", meta_iterations=5, tasks_per_iter=2,
                          shots=shots)
            with self.passes(monkeypatch, family) as lengths:
                runs = [meta_train(spec, cfg, bundle.train_tasks, seed=4) for _ in range(2)]
            assert lengths == expected_passes
            assert runs[0][0].tobytes() == runs[1][0].tobytes()
            expected_theta, expected_curve = per_task_meta_train(spec, cfg, bundle.train_tasks, seed=4)
            assert runs[0][0].tobytes() == expected_theta.tobytes()
            assert runs[0][1] == expected_curve

    @pytest.mark.parametrize("tasks_per_iter", [None, 8])
    @pytest.mark.parametrize("family, width", [("linear", 1), ("mlp", 8), ("recurrent", 4)])
    def test_task_axis_of_eight_or_more_matches_per_task_oracle(self, monkeypatch, family, width, tasks_per_iter):
        # numpy sums an inner axis pairwise from 8 terms on; the query gradients of 8 or 9 stacked tasks must still
        # be added in task order
        series = generate_synthetic_tasks("synthetic", 10, 168, seed=13)
        tasks = build_bundle(series[:9], series[9], window=24, seed=13).train_tasks
        spec = LearnerSpec(family, input_dim=24, width=width)
        cfg = cfg_sgd(inner_lr=0.003, outer_lr=0.002, optimizer="adam", meta_iterations=4, tasks_per_iter=tasks_per_iter)
        expected_theta, expected_curve = per_task_meta_train(spec, cfg, tasks, seed=5)
        with self.passes(monkeypatch, family) as lengths:
            theta, curve = meta_train(spec, cfg, tasks, seed=5)
        assert lengths == [tasks_per_iter or 9] * (cfg.meta_iterations * 2)
        assert theta.tobytes() == expected_theta.tobytes()
        assert curve == expected_curve

    def test_block_is_the_default_run(self):
        assert meta.EPISODE_BLOCK == BLOCK == MetaConfig().meta_iterations

    def test_shorter_run_is_a_prefix_across_a_block_boundary(self):
        bundle, _ = synthetic_bundle()
        spec = LearnerSpec("linear", input_dim=24)
        cfg = cfg_sgd(inner_lr=0.003, outer_lr=0.002, optimizer="adam", tasks_per_iter=3)
        theta, curve = meta_train(spec, replace(cfg, meta_iterations=70), bundle.train_tasks, seed=8)
        _, longer = meta_train(spec, replace(cfg, meta_iterations=130), bundle.train_tasks, seed=8)
        assert curve == longer[:70]
        expected_theta, expected_curve = per_task_meta_train(spec, replace(cfg, meta_iterations=70),
                                                             bundle.train_tasks, seed=8)
        assert theta.tobytes() == expected_theta.tobytes()
        assert curve == expected_curve

    @pytest.mark.parametrize("episode", EPISODES)
    def test_gather_runs_keep_the_bits(self, monkeypatch, episode):
        # at 20 kB a run holds 2 iterations of tasks_per_iter_2_of_4 and 1 of the others
        monkeypatch.setattr(meta, "GATHER_BYTES", 20_000)
        self.assert_stacked_matches_oracle(monkeypatch, LearnerSpec("linear", input_dim=24), "adam", episode)

    @pytest.mark.parametrize("shots", [20, 500])
    def test_per_task_gather_runs_keep_the_bits(self, tmp_path, monkeypatch, shots):
        # unequal pools run task by task, gathered one iteration at a time; GATHER_BYTES bounds only the runs of
        # stacked episodes, so its 1-byte setting leaves this path as it is
        monkeypatch.setattr(meta, "GATHER_BYTES", 1)
        bundle, spec = unequal_bundle(tmp_path), LearnerSpec("linear", input_dim=24)
        cfg = cfg_sgd(inner_lr=0.003, outer_lr=0.002, optimizer="adam", meta_iterations=5, tasks_per_iter=2, shots=shots)
        theta, curve = meta_train(spec, cfg, bundle.train_tasks, seed=4)
        expected_theta, expected_curve = per_task_meta_train(spec, cfg, bundle.train_tasks, seed=4)
        assert theta.tobytes() == expected_theta.tobytes()
        assert curve == expected_curve

    def test_whole_pools_of_long_series_gather_in_bounded_runs(self):
        # gathered as one block, four pools of 1581/395 windows used whole peaked at about 50 times the pools; the
        # ragged case, series of 2000 to 1100 hours, runs task by task and gathers one iteration at a time
        series = generate_synthetic_tasks("synthetic", 5, 2000, seed=3)
        ragged = [replace(s, values=s.values[:hours]) for s, hours in zip(series, (2000, 1700, 1400, 1100))]
        for train_series in (series[:4], ragged):
            tasks = build_bundle(train_series, series[4], window=24, seed=3).train_tasks
            pools = sum(task.support.X.nbytes + task.query.X.nbytes for task in tasks)
            tracemalloc.start()
            try:
                meta_train(LearnerSpec("linear", input_dim=24), cfg_sgd(shots=5000, meta_iterations=2), tasks, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * pools

    @pytest.mark.parametrize("iterations, streams", [(0, 0), (1, 1), (50, 1), (51, 2), (130, 3)])
    def test_one_episode_stream_per_block(self, monkeypatch, iterations, streams):
        bundle, _ = synthetic_bundle()
        opened = []

        def counted(*path):
            opened.append(path)
            return spawn(*path)

        monkeypatch.setattr(meta, "spawn", counted)
        cfg = cfg_sgd(inner_lr=0.001, outer_lr=0.001, meta_iterations=iterations)
        meta_train(LearnerSpec("linear", input_dim=24), cfg, bundle.train_tasks, seed=6)
        assert opened == [(6, "meta-block", j) for j in range(streams)]

    def test_empty_pool_rejected(self):
        task = TaskDataset("t", support=[pair([1.0], 1.0)], query=[pair([2.0], 2.0)])
        empty = replace(task, query=task.query[:0])
        with pytest.raises(ValueError, match="non-empty"):
            meta_train(LINEAR_1D, cfg_sgd(meta_iterations=1), [task, empty], seed=0)


class TestFineTune:
    def test_noop_at_optimum(self):
        theta = np.array([1.0, 0.0])
        out = fine_tune(LINEAR_1D, theta, [pair([2.0], 2.0)], finetune_lr=0.1, steps=3)
        assert np.array_equal(out, theta)

    def test_single_step_hand_computed(self):
        # averaged validation loss over two pairs; one sgd step
        theta = np.array([0.0, 0.0])
        validation = [pair([1.0], 1.0), pair([2.0], 0.5)]
        grad_w = (2 * (0 - 1.0) * 1.0 + 2 * (0 - 0.5) * 2.0) / 2.0
        grad_b = (2 * (0 - 1.0) + 2 * (0 - 0.5)) / 2.0
        out = fine_tune(LINEAR_1D, theta, validation, finetune_lr=0.1, steps=1)
        assert np.allclose(out, [-0.1 * grad_w, -0.1 * grad_b])

    def test_monotone_descent_convex(self):
        # linear learner is convex: at small rates every step must help
        dim = 5
        spec = LearnerSpec("linear", input_dim=dim)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            validation = [
                WindowPair(x=rng.standard_normal(dim), y=float(rng.standard_normal()))
                for _ in range(12)
            ]
            theta = init_params(spec, seed=seed) + 0.5 * rng.standard_normal(dim + 1)
            losses = [loss(spec, theta, validation, average=True)]
            current = theta
            for _ in range(10):
                current = fine_tune(spec, current, validation, finetune_lr=1e-3, steps=1)
                losses.append(loss(spec, current, validation, average=True))
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            fine_tune(LINEAR_1D, np.zeros(2), [pair([1.0], 1.0)], finetune_lr=0.1, steps=0)


def asdict_config(config):
    """``PipelineConfig.to_dict`` as first written, through ``dataclasses.asdict``."""
    out = {**asdict(config), "choices": list(config.choices)}
    if config.shots is None:
        del out["shots"]
    return out


def asdict_record_json(record):
    """``EvaluationRecord.to_json`` as first written, through ``dataclasses.asdict``."""
    payload = {**asdict(record), "config": asdict_config(record.config)}
    del payload["wall_time_ms"]
    return json.dumps(payload, sort_keys=True)


class TestSerialization:
    CONFIGS = {"without_shots": PipelineConfig("mlp", 128, 0.001, 0.02, 0.3, "adam", choices=(0, 4, 2, 1, 3)),
               "with_shots": PipelineConfig("linear", 1, 0.5, 1e-4, 0.0123, "sgd", shots=20, choices=(1, 0))}

    @pytest.mark.parametrize("config", CONFIGS)
    def test_config_dict_equals_the_asdict_form(self, config):
        config = self.CONFIGS[config]
        assert json.dumps(config.to_dict()) == json.dumps(asdict_config(config))  # same keys in the same order

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("status", ["ok", "failed"])
    def test_record_json_equals_the_asdict_form(self, config, status):
        mse = {"ok": (0.0123456789012345, 3.0e5), "failed": (None, None)}[status]
        record = EvaluationRecord(iteration=7, config=self.CONFIGS[config], val_mse=mse[0], test_mse=mse[1],
                                  seed=2**63 + 5, wall_time_ms=12.5, status=status)
        assert record.to_json() == asdict_record_json(record)

    def test_evaluated_records_equal_the_asdict_form(self):
        bundle, _ = synthetic_bundle()
        for lr, status in ((0.001, "ok"), (0.5, "failed")):  # 0.5 diverges within 50 meta-iterations
            config = PipelineConfig("linear", 1, lr, lr, lr, "sgd", shots=5, choices=(1, 2, 3))
            record = evaluate_pipeline(config, bundle, seed=1)
            assert record.status == status
            assert record.to_json() == asdict_record_json(record)


class TestEvaluatePipeline:
    def config(self, **kw):
        defaults = dict(
            family="linear", width=1, inner_lr=0.001, outer_lr=0.001, finetune_lr=0.003, optimizer="sgd"
        )
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_deterministic_records(self):
        bundle, _ = synthetic_bundle()
        a = evaluate_pipeline(self.config(), bundle, seed=5)
        b = evaluate_pipeline(self.config(), bundle, seed=5)
        assert a.to_json() == b.to_json()

    def test_mse_non_negative(self):
        bundle, _ = synthetic_bundle()
        record = evaluate_pipeline(self.config(), bundle, seed=1)
        assert record.status == "ok"
        assert record.val_mse >= 0.0 and record.test_mse >= 0.0

    def test_divergent_config_becomes_failure(self):
        bundle, _ = synthetic_bundle()
        record = evaluate_pipeline(
            self.config(inner_lr=0.5, outer_lr=0.5, finetune_lr=0.5), bundle, seed=1
        )
        assert record.status == "failed"
        assert record.val_mse is None and record.test_mse is None

    def test_programming_error_propagates_out_of_search(self, monkeypatch):
        # only numeric divergence may become a reward-0 record
        def broken(*args, **kwargs):
            raise ValueError("shape bug")

        monkeypatch.setattr(meta, "fine_tune", broken)
        bundle, _ = synthetic_bundle()
        with pytest.raises(ValueError, match="shape bug"):
            search(build_search_space("linear"), bundle, budget=1, seed=0, settings=MetaConfig(meta_iterations=1))

    @pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
    def test_arithmetic_errors_propagate_out_of_search(self, monkeypatch, error):
        # NumericError is the one failure: any other ArithmeticError is a bug, never a reward-0 record
        def broken(*args, **kwargs):
            raise error("arithmetic bug")

        monkeypatch.setattr(meta, "fine_tune", broken)
        bundle, _ = synthetic_bundle()
        with pytest.raises(error, match="arithmetic bug"):
            search(build_search_space("linear"), bundle, budget=1, seed=0, settings=MetaConfig(meta_iterations=1))

    def test_beats_predict_the_mean(self):
        # Oracle: the predict-the-mean baseline scores exactly the series
        # variance; a trained pipeline must do better. The minimum learning
        # rate 1e-4 needs a few hundred iterations to clear the bar.
        bundle, target = synthetic_bundle(seed=7)
        variance = float(np.var(normalize(target).values))
        record = evaluate_pipeline(
            self.config(inner_lr=1e-4, outer_lr=1e-4, finetune_lr=1e-4),
            bundle,
            seed=7,
            settings=MetaConfig(meta_iterations=400),
        )
        assert record.status == "ok"
        assert record.test_mse < variance

    def test_train_pipeline_result_fields(self):
        bundle, _ = synthetic_bundle()
        result, test_mse = train_pipeline(self.config(), bundle, seed=2, settings=MetaConfig(meta_iterations=4))
        assert len(result.train_curve) == 4
        assert result.val_mse >= 0.0 and test_mse >= 0.0
        assert result.theta_meta.shape == result.theta_final.shape

    def test_config_shots_overrides_settings(self):
        bundle, _ = synthetic_bundle()
        settings = MetaConfig(meta_iterations=3, shots=10)
        with_shots = evaluate_pipeline(self.config(shots=1), bundle, seed=4, settings=settings)
        without = evaluate_pipeline(self.config(), bundle, seed=4, settings=settings)
        assert with_shots.status == without.status == "ok"
        assert with_shots.test_mse != without.test_mse  # one-shot episodes train differently

    def test_total_gradient_steps_formula(self):
        cfg = MetaConfig(
            inner_lr=0.001, outer_lr=0.001, finetune_lr=0.003, meta_iterations=50,
            finetune_steps=2, inner_steps=3, tasks_per_iter=None,
        )
        assert total_gradient_steps(cfg, 4) == 50 * (4 * 3 + 1) + 2


class TestMetaConfigValidation:
    def test_lr_range_enforced(self):
        with pytest.raises(ValueError):
            MetaConfig(inner_lr=0.6, outer_lr=0.001, finetune_lr=0.01)
        with pytest.raises(ValueError):
            MetaConfig(inner_lr=0.001, outer_lr=5e-5, finetune_lr=0.01)

    def test_shots_positive(self):
        with pytest.raises(ValueError):
            MetaConfig(inner_lr=0.001, outer_lr=0.001, finetune_lr=0.01, shots=0)
