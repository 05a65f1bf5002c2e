"""Upper-level configuration search: MCTS over the decision tuple.

The tree has one level per pipeline decision (width, inner/outer/fine-tune
learning rates, optimizer, optionally shots). Child selection maximizes the
UCT score Q/N + c*sqrt(ln N_parent / N_child); expansion is throttled by
progressive widening (a node may gain a child only when ceil(N^kappa)
increments); new options are ranked by all-moves-as-first (AMAF) reward
statistics from every simulation that passed through the node, kept only
for the node's child level, the one level expansion reads; remaining levels
are filled by uniform random rollout; rewards back-propagate additively
along the visited path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .learners import OPTIMIZERS
from .meta import LR_MAX, LR_MIN, EvaluationRecord, MetaConfig, PipelineConfig, evaluate_pipeline
from .rng import derive_seed, spawn

WIDTH_OPTIONS = (128, 256, 384, 512, 640, 768, 896, 1024)
SHOT_OPTIONS = (1, 5, 10, 20)
MAX_GRID_RESOLUTION = 1000  # ample (the paper uses 8); the grid is a tuple of floats, and 10**8 exhausted memory
DEFAULT_GRID_RESOLUTION, DEFAULT_KAPPA, DEFAULT_C_UCT = 8, 0.5, 1.0


@dataclass(frozen=True)
class Level:
    name: str
    options: tuple


@dataclass(frozen=True)
class SearchSpace:
    family: str
    levels: tuple[Level, ...]
    kappa: float
    c_uct: float


def lr_grid(resolution: int) -> tuple[float, ...]:
    """Log-spaced learning-rate grid over [1e-4, 0.5], endpoints included."""
    if not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise ValueError(f"grid resolution must lie in [2, {MAX_GRID_RESOLUTION}], got {resolution}")
    return tuple(float(v) for v in np.geomspace(LR_MIN, LR_MAX, resolution))


def build_search_space(
    family: str,
    grid_resolution: int = DEFAULT_GRID_RESOLUTION,
    kappa: float = DEFAULT_KAPPA,
    c_uct: float = DEFAULT_C_UCT,
    include_shots_level: bool = False,
) -> SearchSpace:
    """Assemble the decision levels for one learner family.

    The linear family has no width to choose, so its first level is a single
    placeholder option.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if not (math.isfinite(c_uct) and c_uct > 0.0):
        raise ValueError(f"c_uct must be finite and positive, got {c_uct}")
    widths = (1,) if family == "linear" else WIDTH_OPTIONS
    grid = lr_grid(grid_resolution)
    levels = [
        Level("width", widths),
        Level("inner_lr", grid),
        Level("outer_lr", grid),
        Level("finetune_lr", grid),
        Level("optimizer", OPTIMIZERS),
    ]
    if include_shots_level:
        levels.append(Level("shots", SHOT_OPTIONS))
    return SearchSpace(family=family, levels=tuple(levels), kappa=kappa, c_uct=c_uct)


def space_size(space: SearchSpace) -> int:
    return math.prod(len(level.options) for level in space.levels)


def config_from_choices(space: SearchSpace, choices: tuple[int, ...]) -> PipelineConfig:
    if len(choices) != len(space.levels):
        raise ValueError(f"expected {len(space.levels)} choices, got {len(choices)}")
    resolved = {}
    for level, index in zip(space.levels, choices):
        if not 0 <= index < len(level.options):
            raise ValueError(f"choice {index} out of range for level {level.name!r}")
        resolved[level.name] = level.options[index]
    return PipelineConfig(family=space.family, choices=tuple(int(c) for c in choices), **resolved)


@dataclass
class TreeNode:
    """Search-tree node; ``level`` 0 is the root, level L fixes decision L."""

    level: int
    option: int | None = None
    visit_count: int = 0
    total_reward: float = 0.0
    children: list["TreeNode"] = field(default_factory=list)
    amaf_stats: dict[int, list] = field(default_factory=dict)  # child-level option -> [count, reward sum]


def uct_score(child: TreeNode, parent_visits: int, c_uct: float) -> float:
    if child.visit_count == 0:
        return math.inf
    exploit = child.total_reward / child.visit_count
    return exploit + c_uct * math.sqrt(math.log(parent_visits) / child.visit_count)


def select(node: TreeNode, c_uct: float, rng) -> TreeNode:
    """Highest-UCT child; unvisited children score +inf, ties break uniformly."""
    if not node.children:
        raise RuntimeError("select called on a node without children")
    scores = [uct_score(child, node.visit_count, c_uct) for child in node.children]
    best = max(scores)
    tied = [i for i, s in enumerate(scores) if s == best]
    pick = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
    return node.children[pick]


def _ceil(x: float) -> int:
    # Tolerate float dust just below an integer (e.g. 27*(1/3)-powers).
    return math.ceil(x - 1e-9)


def widening_allows_child(visit_count: int, kappa: float) -> bool:
    return _ceil((visit_count + 1) ** kappa) > _ceil(visit_count**kappa)


def maybe_expand(node: TreeNode, space: SearchSpace, rng) -> TreeNode | None:
    """Attach one new child if progressive widening permits and untried
    options remain; the option is the untried one with the best AMAF mean
    (options never seen in a rollout rank after those, in seeded random
    order)."""
    if node.level >= len(space.levels):
        return None
    options = space.levels[node.level].options
    tried = {child.option for child in node.children}
    untried = [i for i in range(len(options)) if i not in tried]
    if not untried:
        return None
    if not widening_allows_child(node.visit_count, space.kappa):
        return None
    shuffle_rank = {int(option): pos for pos, option in enumerate(rng.permutation(len(options)))}

    def rank(option: int):
        stat = node.amaf_stats.get(option)
        if stat is None or stat[0] == 0:
            return (0, 0.0, -shuffle_rank[option])
        return (1, stat[1] / stat[0], -shuffle_rank[option])

    choice = max(untried, key=rank)
    child = TreeNode(level=node.level + 1, option=choice)
    node.children.append(child)
    return child


def rollout(prefix: tuple[int, ...], space: SearchSpace, rng) -> PipelineConfig:
    """Complete a partial decision tuple by uniform seeded sampling."""
    choices = list(prefix)
    for level in range(len(choices), len(space.levels)):
        choices.append(int(rng.integers(len(space.levels[level].options))))
    return config_from_choices(space, tuple(choices))


def backpropagate(path: list[TreeNode], reward: float, config: PipelineConfig) -> None:
    """N += 1 and Q += reward on every path node; on each node above the last
    level, the same update to the AMAF stat of the config's child-level option."""
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    for node in path:
        node.visit_count += 1
        node.total_reward += reward
        if node.level < len(config.choices):
            stat = node.amaf_stats.setdefault(config.choices[node.level], [0, 0.0])
            stat[0] += 1
            stat[1] += reward


def reward_from_mse(mse: float | None) -> float:
    """Monotone map from error to a bounded reward: 1/(1+mse); failures get 0."""
    if mse is None or math.isnan(mse):
        return 0.0
    if mse < 0:
        raise ValueError(f"mse must be non-negative, got {mse}")
    return 1.0 / (1.0 + mse)


def _succeeded(record: EvaluationRecord) -> bool:
    """The one rule for an evaluation's outcome: it succeeded when its status is "ok" and its test MSE is finite."""
    return record.status == "ok" and record.test_mse is not None and math.isfinite(record.test_mse)


@dataclass(frozen=True)
class SearchTrajectory:
    records: tuple[EvaluationRecord, ...]

    def best_so_far(self) -> list[float]:
        """Running minimum of test MSE over the records. Failed evaluations
        carry the previous best forward; leading failures yield +inf until the
        first success."""
        if not self.records:
            raise ValueError("best_so_far of an empty trajectory is undefined")
        return list(itertools.accumulate((r.test_mse if _succeeded(r) else math.inf for r in self.records), min))

    def best_record(self) -> EvaluationRecord | None:
        ok = [r for r in self.records if _succeeded(r)]
        return min(ok, key=lambda r: r.test_mse) if ok else None

    def failed_count(self) -> int:
        return sum(not _succeeded(r) for r in self.records)

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + "\n"


def _one_iteration(root: TreeNode, space: SearchSpace, rng) -> tuple[list[TreeNode], tuple[int, ...]]:
    path = [root]
    node = root
    while node.level < len(space.levels):
        child = maybe_expand(node, space, rng)
        if child is not None:
            path.append(child)
            break
        if not node.children:
            break
        node = select(node, space.c_uct, rng)
        path.append(node)
    prefix = tuple(n.option for n in path[1:])
    return path, prefix


def _run(propose, bundle, budget: int, seed: int, evaluator, settings: MetaConfig):
    """The one search loop: ``budget`` iterations of ``propose()`` -> (tree path, config), an evaluation under
    ``derive_seed(seed, "eval", it)``, and the path's backpropagation of its reward. Returns the config of the
    record with the lowest test MSE (None when every evaluation failed) and the full trajectory."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if evaluator is None:  # looks up evaluate_pipeline at each call, so a wrapper set on the module is seen
        evaluator = lambda cfg, bnd, s: evaluate_pipeline(cfg, bnd, s, settings=settings)
    records = []
    for it in range(budget):
        path, config = propose()
        record = replace(evaluator(config, bundle, derive_seed(seed, "eval", it)), iteration=it)
        backpropagate(path, reward_from_mse(record.test_mse if _succeeded(record) else None), config)
        records.append(record)
    trajectory = SearchTrajectory(records=tuple(records))
    best = trajectory.best_record()
    return (best.config if best else None), trajectory


def search(
    space: SearchSpace,
    bundle,
    budget: int,
    seed: int,
    evaluator=None,
    settings: MetaConfig = MetaConfig(),
) -> tuple[PipelineConfig | None, SearchTrajectory]:
    """Run ``budget`` select/expand/rollout/evaluate/backpropagate iterations.

    Returns the config of the record with the lowest test MSE (None when
    every evaluation failed) and the full trajectory. Deterministic per seed;
    failed evaluations earn reward 0.
    """
    root, tree_rng = TreeNode(level=0), spawn(seed, "tree")

    def propose():
        path, prefix = _one_iteration(root, space, tree_rng)
        return path, rollout(prefix, space, tree_rng)

    return _run(propose, bundle, budget, seed, evaluator, settings)


def random_search(
    space: SearchSpace,
    bundle,
    budget: int,
    seed: int,
    evaluator=None,
    settings: MetaConfig = MetaConfig(),
) -> tuple[PipelineConfig | None, SearchTrajectory]:
    """Uniform sampling baseline with the same record/trajectory contract."""
    rng = spawn(seed, "random-search")
    return _run(lambda: ([], rollout((), space, rng)), bundle, budget, seed, evaluator, settings)
