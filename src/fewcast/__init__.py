"""Automated few-shot time-series forecasting.

Bi-level pipeline design: an MCTS over hyperparameter configurations at the
upper level, a first-order gradient meta-learner across small data tasks at
the lower level.
"""

__version__ = "0.1.0"

from .data import (
    build_bundle,
    generate_synthetic_tasks,
)
from .learners import (
    LearnerSpec,
    gradient,
    init_params,
    loss,
)
from .meta import (
    MetaConfig,
    PipelineConfig,
    evaluate_pipeline,
    fine_tune,
    meta_train,
)
from .search import (
    build_search_space,
    random_search,
    search,
)
from .stats import a12, wilcoxon_signed_rank
