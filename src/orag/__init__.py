"""Online-adaptive retrieval embeddings from bandit feedback.

Softmax retrieval over a live item-embedding catalog, updated per interaction
by importance-weighted gradient steps, with deployment variants (K-retrieval
with reranking, dynamic catalogs, multi-hop rounds), a synthetic environment,
and regret instrumentation against the hindsight-optimal embeddings.
"""

from .catalog import (
    Catalog,
    ItemId,
    ProjectionMode,
    read_snapshot,
    write_snapshot,
)
from .learner import (
    Feedback,
    GradientBatch,
    LearningRateSchedule,
    ScheduleKind,
    UpdateMode,
    apply_update,
    estimate_gradient_chosen_only,
    estimate_gradient_full,
    horizon_tuned_eta,
    step,
)
from .metrics import (
    RankedList,
    RegretLedger,
    cross_entropy_loss,
    ndcg_at_k,
    recall_at_k,
    regret_curve,
    rolling_accuracy,
    train_oracle,
)
from .policy import (
    ProbabilityVector,
    QueryEmbedding,
    RandomSource,
    sample_k_without_replacement,
    sample_one,
    score,
)
from .simulator import (
    Environment,
    EpisodeConfig,
    EpisodeLog,
    Variant,
    initial_catalog,
    make_environment,
    run_episode,
)
from .variants import (
    CatalogDelta,
    MultiHopRound,
    make_stub_reranker,
    step_with_rerank,
)

__version__ = "0.1.0"
