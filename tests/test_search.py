import math
from dataclasses import replace

import numpy as np
import pytest

from fewcast.meta import EvaluationRecord, MetaConfig, PipelineConfig
from fewcast.rng import derive_seed, spawn
from fewcast.search import (
    MAX_GRID_RESOLUTION,
    SearchSpace,
    SearchTrajectory,
    TreeNode,
    _run,
    backpropagate,
    build_search_space,
    config_from_choices,
    lr_grid,
    maybe_expand,
    random_search,
    reward_from_mse,
    rollout,
    search,
    select,
    space_size,
    widening_allows_child,
)

# chi-square critical values at p = 0.01 (upper tail), by degrees of freedom
CHI2_99 = {4: 13.2767, 7: 18.4753}


def mock_evaluator(weights, target):
    def evaluator(config, bundle, seed):
        m = float(sum(w * abs(c - t) for w, c, t in zip(weights, config.choices, target)))
        return EvaluationRecord(
            iteration=-1, config=config, val_mse=m, test_mse=m, seed=seed, wall_time_ms=0.0, status="ok"
        )

    return evaluator


def constant_evaluator(mse=1.0):
    def evaluator(config, bundle, seed):
        return EvaluationRecord(
            iteration=-1, config=config, val_mse=mse, test_mse=mse, seed=seed, wall_time_ms=0.0, status="ok"
        )

    return evaluator


def record(iteration, test_mse, status="ok"):
    config = PipelineConfig(
        family="linear", width=1, inner_lr=0.001, outer_lr=0.001, finetune_lr=0.001, optimizer="sgd"
    )
    return EvaluationRecord(
        iteration=iteration,
        config=config,
        val_mse=test_mse,
        test_mse=test_mse,
        seed=0,
        wall_time_ms=0.0,
        status=status,
    )


def trajectory(*records):
    return SearchTrajectory(records=records)


class TestSearchSpace:
    def test_grid_endpoints(self):
        assert lr_grid(2) == (0.0001, 0.5)

    def test_grid_constant_ratio(self):
        grid = lr_grid(8)
        assert len(grid) == 8
        expected = (0.5 / 0.0001) ** (1.0 / 7.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert np.allclose(ratios, expected, rtol=1e-9)
        assert grid[0] == pytest.approx(0.0001) and grid[-1] == pytest.approx(0.5)

    def test_grid_sorted_within_bounds(self):
        grid = lr_grid(13)
        assert list(grid) == sorted(grid)
        assert all(0.0001 <= v <= 0.5 + 1e-15 for v in grid)

    def test_linear_width_placeholder(self):
        space = build_search_space("linear")
        assert len(space.levels[0].options) == 1

    def test_mlp_widths(self):
        space = build_search_space("mlp")
        assert space.levels[0].options == (128, 256, 384, 512, 640, 768, 896, 1024)

    def test_level_count_and_shots_flag(self):
        assert len(build_search_space("mlp").levels) == 5
        assert len(build_search_space("mlp", include_shots_level=True).levels) == 6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_search_space("mlp", kappa=1.0)
        with pytest.raises(ValueError):
            build_search_space("mlp", c_uct=0.0)
        with pytest.raises(ValueError):
            build_search_space("mlp", grid_resolution=1)

    @pytest.mark.parametrize("c_uct", [math.inf, math.nan, -math.inf])
    def test_non_finite_c_uct_rejected(self, c_uct):
        # an infinite exploration weight scores inf * 0 = nan for a child at
        # zero exploration, so select would find no child to tie-break among
        with pytest.raises(ValueError, match="c_uct must be finite and positive"):
            build_search_space("linear", c_uct=c_uct)

    def test_grid_resolution_capped(self):
        assert len(lr_grid(MAX_GRID_RESOLUTION)) == MAX_GRID_RESOLUTION
        with pytest.raises(ValueError, match=f"must lie in \\[2, {MAX_GRID_RESOLUTION}\\]"):
            build_search_space("linear", grid_resolution=MAX_GRID_RESOLUTION + 1)

    def test_oversized_grid_rejected_before_it_is_built(self, monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("the grid was built before its resolution was checked")

        monkeypatch.setattr(np, "geomspace", unbuilt)
        with pytest.raises(ValueError, match="grid resolution"):
            lr_grid(100_000_000)

    def test_space_size(self):
        assert space_size(build_search_space("mlp", grid_resolution=8)) == 8 * 8 * 8 * 8 * 5
        assert space_size(build_search_space("linear", grid_resolution=3)) == 1 * 3 * 3 * 3 * 5


class TestSelect:
    def test_unvisited_child_first(self):
        parent = TreeNode(level=0, visit_count=5, total_reward=2.0)
        seen = TreeNode(level=1, option=0, visit_count=4, total_reward=3.9)
        fresh = TreeNode(level=1, option=1)
        parent.children = [seen, fresh]
        assert select(parent, c_uct=1.0, rng=spawn(0)) is fresh

    def test_arithmetic_example(self):
        # score(A) = 2/4 + sqrt(ln16/4) ~= 1.3326; score(B) = 1 + sqrt(ln16) ~= 2.6651
        parent = TreeNode(level=0, visit_count=16)
        a = TreeNode(level=1, option=0, visit_count=4, total_reward=2.0)
        b = TreeNode(level=1, option=1, visit_count=1, total_reward=1.0)
        parent.children = [a, b]
        assert select(parent, c_uct=1.0, rng=spawn(0)) is b
        score_a = 0.5 + math.sqrt(math.log(16) / 4)
        score_b = 1.0 + math.sqrt(math.log(16))
        assert score_a == pytest.approx(1.3326, abs=5e-4)
        assert score_b == pytest.approx(2.6651, abs=5e-4)

    def test_zero_exploration_is_pure_exploitation(self):
        parent = TreeNode(level=0, visit_count=100)
        low = TreeNode(level=1, option=0, visit_count=1, total_reward=0.2)
        high = TreeNode(level=1, option=1, visit_count=90, total_reward=60.0)
        parent.children = [low, high]
        assert select(parent, c_uct=1e-12, rng=spawn(0)) is high

    def test_no_children_rejected(self):
        with pytest.raises(RuntimeError):
            select(TreeNode(level=0), c_uct=1.0, rng=spawn(0))

    def test_reward_shift_invariance_at_equal_visits(self):
        # with equal visit counts, adding a constant to every reward shifts
        # all means equally and cannot change the argmax
        rng = np.random.default_rng(3)
        for shift in (0.5, 2.0, 10.0):
            rewards = rng.uniform(0.0, 1.0, size=(3, 4))
            parent = TreeNode(level=0, visit_count=12)
            parent.children = [
                TreeNode(level=1, option=i, visit_count=4, total_reward=float(r.sum()))
                for i, r in enumerate(rewards)
            ]
            base = select(parent, c_uct=0.7, rng=spawn(1)).option
            shifted_parent = TreeNode(level=0, visit_count=12)
            shifted_parent.children = [
                TreeNode(level=1, option=i, visit_count=4, total_reward=float((r + shift).sum()))
                for i, r in enumerate(rewards)
            ]
            assert select(shifted_parent, c_uct=0.7, rng=spawn(1)).option == base


class TestProgressiveWidening:
    def test_ceiling_transitions_kappa_half(self):
        # visits 0 -> 1: ceil(1) > ceil(0) -> expand
        assert widening_allows_child(0, 0.5)
        # visits 4 -> 5: ceil(sqrt(5)) = 3 > 2 -> expand
        assert widening_allows_child(4, 0.5)
        # visits 5 -> 6: ceil(sqrt(6)) = 3 = 3 -> no expansion
        assert not widening_allows_child(5, 0.5)
        assert not widening_allows_child(2, 0.5)
        assert not widening_allows_child(3, 0.5)

    def test_expand_denied_when_all_tried(self):
        space = build_search_space("linear", grid_resolution=2)
        node = TreeNode(level=1, option=0, visit_count=0)
        node.children = [TreeNode(level=2, option=i) for i in range(2)]
        assert maybe_expand(node, space, spawn(0)) is None

    def test_expand_denied_at_terminal_level(self):
        space = build_search_space("linear", grid_resolution=2)
        node = TreeNode(level=5, option=0)
        assert maybe_expand(node, space, spawn(0)) is None

    def test_expansion_attaches_child(self):
        space = build_search_space("linear", grid_resolution=2)
        root = TreeNode(level=0)
        child = maybe_expand(root, space, spawn(0))
        assert child is not None
        assert child.level == 1
        assert root.children == [child]

    def test_amaf_prior_orders_expansion(self):
        space = build_search_space("linear", grid_resolution=4)
        node = TreeNode(level=1, option=0, visit_count=0)
        # option 2 has the best all-moves-as-first mean at the child level
        node.amaf_stats[0] = [2, 0.4]
        node.amaf_stats[2] = [3, 2.7]
        node.amaf_stats[3] = [1, 0.5]
        child = maybe_expand(node, space, spawn(0))
        assert child.option == 2

    def test_amaf_unseen_rank_behind_seen(self):
        space = build_search_space("linear", grid_resolution=4)
        node = TreeNode(level=1, option=0, visit_count=0)
        node.amaf_stats[1] = [2, 1.0]
        child = maybe_expand(node, space, spawn(0))
        assert child.option == 1


class TestRollout:
    def test_full_prefix_unchanged(self):
        space = build_search_space("linear", grid_resolution=3)
        config = rollout((0, 1, 2, 0, 4), space, spawn(0))
        assert config.choices == (0, 1, 2, 0, 4)

    def test_determinism(self):
        space = build_search_space("mlp", grid_resolution=5)
        a = rollout((), space, spawn(9))
        b = rollout((), space, spawn(9))
        assert a.choices == b.choices

    def test_overlong_prefix_rejected(self):
        space = build_search_space("linear", grid_resolution=3)
        with pytest.raises(ValueError):
            rollout((0,) * 6, space, spawn(0))

    def test_uniformity_chi_square(self):
        # 10,000 free draws per level must pass chi-square at p > 0.01
        space = build_search_space("linear", grid_resolution=8)
        rng = spawn(123, "uniformity")
        draws = [rollout((), space, rng).choices for _ in range(10_000)]
        counts_per_level = np.zeros((5, 8), dtype=int)
        for choices in draws:
            for level, c in enumerate(choices):
                counts_per_level[level, c] += 1
        for level, options in enumerate(space.levels):
            k = len(options.options)
            if k < 2:
                continue
            observed = counts_per_level[level, :k]
            expected = 10_000 / k
            statistic = float(np.sum((observed - expected) ** 2 / expected))
            assert statistic < CHI2_99[k - 1], f"level {level} not uniform: chi2={statistic}"

    def test_resolved_values_match_levels(self):
        space = build_search_space("mlp", grid_resolution=3)
        config = config_from_choices(space, (1, 0, 2, 1, 4))
        assert config.width == 256
        assert config.inner_lr == space.levels[1].options[0]
        assert config.optimizer == "adagrad"


class TestBackpropagate:
    def test_single_update(self):
        space = build_search_space("linear", grid_resolution=2)
        root = TreeNode(level=0)
        config = config_from_choices(space, (0, 0, 0, 0, 0))
        backpropagate([root], 0.7, config)
        assert root.visit_count == 1
        assert root.total_reward == pytest.approx(0.7)

    def test_additivity(self):
        space = build_search_space("linear", grid_resolution=2)
        root = TreeNode(level=0)
        config = config_from_choices(space, (0, 0, 0, 0, 0))
        backpropagate([root], 0.2, config)
        backpropagate([root], 0.4, config)
        assert root.visit_count == 2
        assert root.total_reward == pytest.approx(0.6)

    def test_nan_rejected(self):
        root = TreeNode(level=0)
        space = build_search_space("linear", grid_resolution=2)
        config = config_from_choices(space, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            backpropagate([root], float("nan"), config)

    def test_amaf_updates_the_child_level_only(self):
        space = build_search_space("linear", grid_resolution=2)
        root, mid, leaf = TreeNode(level=0), TreeNode(level=2, option=1), TreeNode(level=5, option=3)
        config = config_from_choices(space, (0, 1, 0, 1, 3))
        backpropagate([root, mid, leaf], 0.5, config)
        backpropagate([root, mid], 0.25, config_from_choices(space, (0, 1, 1, 1, 3)))
        assert root.amaf_stats == {0: [2, 0.75]}  # the option config took at level 1
        assert mid.amaf_stats == {0: [1, 0.5], 1: [1, 0.25]}  # level 3, not its own level 2 nor deeper ones
        assert leaf.amaf_stats == {}  # the last level has no child level
        assert leaf.visit_count == 1 and leaf.total_reward == 0.5


class TestReward:
    def test_endpoints(self):
        assert reward_from_mse(0.0) == 1.0
        assert reward_from_mse(1.0) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            reward_from_mse(-0.1)

    def test_nan_rejected(self):
        # a failure is the search loop's to score, through _succeeded; the map takes errors only
        with pytest.raises(ValueError, match="non-negative"):
            reward_from_mse(math.nan)

    def test_monotone(self):
        values = [reward_from_mse(m) for m in (0.0, 0.1, 1.0, 10.0, 1e9)]
        assert values == sorted(values, reverse=True)

    def test_search_loop_rewards_successes_only(self):
        # _succeeded rejects the NaN and inf records, which add a visit and reward 0
        root, config, mses = TreeNode(level=0), record(-1, 0.0).config, iter([math.nan, 0.5, 0.2, math.inf])
        _run(lambda: ([root], config), None, 4, 0, lambda cfg, bundle, seed: record(-1, next(mses)), MetaConfig())
        assert root.visit_count == 4
        assert root.total_reward == 1 / 1.5 + 1 / 1.2


class TestTrajectoryAnalytics:
    def test_running_minimum(self):
        records = [record(i, m) for i, m in enumerate([3.0, 2.0, 5.0, 1.0])]
        assert trajectory(*records).best_so_far() == [3.0, 2.0, 2.0, 1.0]

    def test_constant_sequence(self):
        records = [record(i, 2.0) for i in range(4)]
        assert trajectory(*records).best_so_far() == [2.0] * 4

    def test_leading_failure_is_infinite(self):
        records = [record(0, None, status="failed"), record(1, 4.0), record(2, None, status="failed")]
        curve = trajectory(*records).best_so_far()
        assert math.isinf(curve[0])
        assert curve[1:] == [4.0, 4.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trajectory().best_so_far()

    def test_one_success_rule(self):
        # an "ok" record without a test MSE counts as failed everywhere the trajectory reads an outcome
        traj = trajectory(record(0, 3.0), record(1, None), record(2, None, status="failed"), record(3, 2.0, "failed"))
        assert traj.failed_count() == 3
        assert traj.best_so_far() == [3.0] * 4
        assert traj.best_record().iteration == 0
        assert trajectory(record(0, None, status="failed")).best_record() is None
        # so does an "ok" record whose test MSE is not finite
        mses = iter([math.nan, 0.5, 0.2, math.inf])
        _, traj = search(build_search_space("linear", grid_resolution=3), None, budget=4, seed=0,
                         evaluator=lambda config, bundle, seed: replace(record(-1, next(mses)), config=config))
        assert traj.best_record().test_mse == 0.2
        assert traj.best_so_far() == [math.inf, 0.5, 0.2, 0.2]
        assert traj.failed_count() == 2


def tree_nodes(root):
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


class TestSearch:
    WEIGHTS = (0.0, 0.3, 0.2, 0.1, 0.05)
    TARGET = (0, 1, 2, 0, 3)

    def test_budget_one(self):
        space = build_search_space("linear", grid_resolution=3)
        best, traj = search(space, None, budget=1, seed=0, evaluator=mock_evaluator(self.WEIGHTS, self.TARGET))
        assert len(traj.records) == 1
        assert best == traj.records[0].config

    def test_best_so_far_non_increasing(self):
        space = build_search_space("linear", grid_resolution=3)
        _, traj = search(space, None, budget=60, seed=1, evaluator=mock_evaluator(self.WEIGHTS, self.TARGET))
        curve = traj.best_so_far()
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    # the contract tests below hold for both drivers, MCTS and the uniform baseline
    DRIVERS = (search, random_search)

    def test_deterministic_trajectories(self):
        space = build_search_space("linear", grid_resolution=3)
        evaluator = mock_evaluator(self.WEIGHTS, self.TARGET)
        for driver in self.DRIVERS:
            _, a = driver(space, None, budget=40, seed=7, evaluator=evaluator)
            _, b = driver(space, None, budget=40, seed=7, evaluator=evaluator)
            assert a.to_jsonl() == b.to_jsonl()
            assert [r.seed for r in a.records] == [derive_seed(7, "eval", it) for it in range(40)]

    def test_iterations_are_sequential(self):
        space = build_search_space("linear", grid_resolution=3)
        for driver in self.DRIVERS:
            _, traj = driver(space, None, budget=9, seed=2, evaluator=constant_evaluator())
            assert [r.iteration for r in traj.records] == list(range(9))

    def test_budget_below_one_rejected(self):
        space = build_search_space("linear", grid_resolution=3)

        def unreached(config, bundle, seed):
            raise AssertionError("an evaluation ran before the budget was checked")

        for driver in self.DRIVERS:
            with pytest.raises(ValueError, match="budget"):
                driver(space, None, budget=0, seed=0, evaluator=unreached)

    def test_tree_consistency_invariants(self):
        # drive the iteration loop directly so the tree stays inspectable
        space = build_search_space("linear", grid_resolution=3, kappa=0.5)
        evaluator = mock_evaluator(self.WEIGHTS, self.TARGET)
        from fewcast.search import _one_iteration

        root = TreeNode(level=0)
        tree_rng = spawn(7, "tree")
        rewards = []
        for it in range(120):
            path, prefix = _one_iteration(root, space, tree_rng)
            config = rollout(prefix, space, tree_rng)
            record = evaluator(config, None, derive_seed(7, "eval", it))
            reward = reward_from_mse(record.test_mse)
            backpropagate(path, reward, config)
            rewards.append(reward)

        assert root.visit_count == 120
        assert root.total_reward == pytest.approx(sum(rewards))
        for node in tree_nodes(root):
            child_visits = sum(c.visit_count for c in node.children)
            assert node.visit_count >= child_visits
            # rewards are non-negative, so accumulated mass can only shrink downward
            assert node.total_reward >= sum(c.total_reward for c in node.children) - 1e-12
            limit = math.ceil(node.visit_count**space.kappa - 1e-9) + 1
            assert len(node.children) <= limit
            next_options = len(space.levels[node.level].options) if node.level < len(space.levels) else 0
            assert len(node.children) <= next_options

    def test_exploration_liveness(self):
        # with a constant reward every first-level option must be tried early;
        # kappa = 0.75 widens fast enough to reach all eight within 3*|C1|
        space = build_search_space("mlp", grid_resolution=3, kappa=0.75)
        seen = set()

        def tracking_evaluator(config, bundle, seed):
            seen.add(config.choices[0])
            return constant_evaluator()(config, bundle, seed)

        search(space, None, budget=3 * 8, seed=5, evaluator=tracking_evaluator)
        assert seen == set(range(8))

    def test_failures_never_abort(self):
        space = build_search_space("linear", grid_resolution=3)

        def flaky(config, bundle, seed):
            fail = sum(config.choices) % 2 == 0
            m = None if fail else 1.0
            return EvaluationRecord(
                iteration=-1, config=config, val_mse=m, test_mse=m, seed=seed,
                wall_time_ms=0.0, status="failed" if fail else "ok",
            )

        for driver in self.DRIVERS:
            best, traj = driver(space, None, budget=50, seed=3, evaluator=flaky)
            assert len(traj.records) == 50
            assert any(r.status == "failed" for r in traj.records)
            assert best is not None

    def test_finds_unique_optimum_with_structure(self):
        space = build_search_space("linear", grid_resolution=3, kappa=0.7, c_uct=0.5)
        best, _ = search(
            space, None, budget=3 * space_size(space), seed=11,
            evaluator=mock_evaluator(self.WEIGHTS, self.TARGET),
        )
        assert best.choices == self.TARGET

    def test_random_search_contract(self):
        space = build_search_space("linear", grid_resolution=3)
        best, traj = random_search(space, None, budget=25, seed=0, evaluator=mock_evaluator(self.WEIGHTS, self.TARGET))
        assert len(traj.records) == 25
        assert best is not None
        _, again = random_search(space, None, budget=25, seed=0, evaluator=mock_evaluator(self.WEIGHTS, self.TARGET))
        assert traj.to_jsonl() == again.to_jsonl()
