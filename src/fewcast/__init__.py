"""Automated few-shot time-series forecasting.

Bi-level pipeline design: an MCTS over hyperparameter configurations at the
upper level, a first-order gradient meta-learner across small data tasks at
the lower level.
"""

__version__ = "0.1.0"

from .data import (
    DataBundle,
    TaskDataset,
    TimeSeries,
    WindowPair,
    Windows,
    build_bundle,
    csv_text,
    generate_synthetic_tasks,
    load_csv,
    make_windows,
    normalize,
    split_support_query,
)
from .learners import (
    LearnerSpec,
    OptimizerState,
    gradient,
    init_optimizer,
    init_params,
    loss,
    optimizer_step,
    value_and_grad,
)
from .meta import (
    EvaluationRecord,
    MetaConfig,
    MetaResult,
    PipelineConfig,
    evaluate_pipeline,
    fine_tune,
    inner_adapt,
    meta_train,
    outer_step,
)
from .search import (
    SearchSpace,
    SearchTrajectory,
    TreeNode,
    build_search_space,
    random_search,
    reward_from_mse,
    search,
)
from .stats import a12, best_so_far, wilcoxon_signed_rank
