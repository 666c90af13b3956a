"""Deployment variants around the core update: K-retrieval with reranking,
dynamic catalogs, and multi-hop rounds.

Rerankers and judges are injectable callables so hosts can wire real models;
the stubs here are controllable simulation analogues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .catalog import Catalog, ItemId
from .errors import InvalidConfig
from .learner import LearningRateSchedule, RoundRecord, UpdateMode, step
from .policy import QueryEmbedding, RandomSource, sample_k_without_replacement
# Unused here, but the benchmark's tracer patches them at this module's names.
from .learner import (  # noqa: F401
    apply_update, estimate_gradient_chosen_only, estimate_gradient_full)
from .policy import sample_one, score  # noqa: F401

Reranker = Callable[[QueryEmbedding, Sequence[ItemId]], ItemId]
Judge = Callable[[QueryEmbedding, ItemId], int]


def make_stub_reranker(
    alpha: float,
    truth_for_query: Callable[[str], ItemId],
    rng: RandomSource,
) -> Reranker:
    """Reranker of tunable strength.

    With probability `alpha` it returns the true item when present among the
    candidates; otherwise (and with probability 1 - alpha) a uniform
    candidate.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InvalidConfig("reranker accuracy alpha must lie in [0, 1]")

    def rerank(q: QueryEmbedding, candidates: Sequence[ItemId]) -> ItemId:
        truth = truth_for_query(q.query_id)
        if truth in candidates and rng.uniform() < alpha:
            return truth
        idx = int(rng.uniform() * len(candidates))
        return candidates[min(idx, len(candidates) - 1)]

    return rerank


def step_with_rerank(
    q,
    catalog: Catalog,
    k: int,
    reranker: Reranker,
    rng: RandomSource,
    schedule: LearningRateSchedule,
    t: int,
    feedback_oracle: Callable[[int, ItemId], bool],
    update_mode: UpdateMode = UpdateMode.FULL,
    clip_propensity: float | None = None,
) -> RoundRecord:
    """`step` choosing by reranking K candidates sampled without replacement.

    The gradient keeps the single-draw propensity p[i_t] from the full
    softmax, exactly as the K-retrieval procedure prescribes, even though i_t
    emerges from K-sampling plus reranking. A reranked choice can carry an
    arbitrarily small single-draw propensity, so `clip_propensity` is worth
    enabling here to bound the importance weights. K > I raises the sampler's `KTooLarge`.
    """

    def rerank(p, rng):
        candidates = sample_k_without_replacement(p, k, rng)
        chosen = reranker(q if isinstance(q, QueryEmbedding) else QueryEmbedding(q), candidates)
        if chosen not in candidates:
            raise InvalidConfig("reranker returned an item outside the candidate set")
        return chosen

    return step(q, catalog, rng, schedule, update_mode, t, feedback_oracle,
                clip_propensity=clip_propensity, choose=rerank)


@dataclass
class CatalogDelta:
    """Additions/removals taking effect at the start of one round."""

    added: list[tuple[ItemId, np.ndarray]] = field(default_factory=list)
    removed: list[ItemId] = field(default_factory=list)
    effective_at: int = 1

    def __post_init__(self):
        added_ids = {i for i, _ in self.added}
        if added_ids & set(self.removed):
            raise InvalidConfig("delta adds and removes the same id")


def apply_delta(catalog: Catalog, delta: CatalogDelta, t: int) -> None:
    """Remove, then add, the delta's items: one `generation` bump per item,
    and a delta that would fail anywhere changes nothing."""
    if delta.effective_at != t:
        raise InvalidConfig(
            f"delta effective_at={delta.effective_at} applied at round {t}"
        )
    catalog.apply_changes(delta.removed, delta.added)


@dataclass
class MultiHopRound:
    """One round's ordered sub-queries, each hop's target item beside its sub-query,
    and the per-hop judge. `run_episode` logs each hop as one record at the round's
    t; the judge gives the feedback, the targets the loss and regret."""

    subqueries: list[QueryEmbedding]
    targets: list[ItemId]
    judge: Judge

    def __post_init__(self):
        if not self.subqueries:
            raise InvalidConfig("multi-hop round needs at least one sub-query")
        if len(self.targets) != len(self.subqueries):
            raise InvalidConfig("multi-hop round needs one target per sub-query")
