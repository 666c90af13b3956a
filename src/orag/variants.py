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
from .errors import InvalidConfig, KTooLarge
from .learner import LearningRateSchedule, RoundRecord, UpdateMode, learn_from_feedback
# Unused here, but the benchmark's tracer patches them at this module's names.
from .learner import (  # noqa: F401
    apply_update, estimate_gradient_chosen_only, estimate_gradient_full, step)
from .policy import (
    QueryEmbedding,
    RandomSource,
    sample_k_without_replacement,
    sample_one,
    score,
)

Reranker = Callable[[QueryEmbedding, Sequence[ItemId]], ItemId]
Judge = Callable[[QueryEmbedding, ItemId], int]
InitEmbedder = Callable[[ItemId], np.ndarray]


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
    """Sample K candidates without replacement, rerank, update as usual.

    The gradient keeps the single-draw propensity p[i_t] from the full
    softmax, exactly as the K-retrieval procedure prescribes, even though i_t
    emerges from K-sampling plus reranking. A reranked choice can carry an
    arbitrarily small single-draw propensity, so `clip_propensity` is worth
    enabling here to bound the importance weights.
    """
    if k > len(catalog):
        raise KTooLarge(f"K={k} with I={len(catalog)} items")
    p = score(q, catalog)
    candidates = sample_k_without_replacement(p, k, rng)
    chosen = reranker(q if isinstance(q, QueryEmbedding) else QueryEmbedding(q), candidates)
    if chosen not in candidates:
        raise InvalidConfig("reranker returned an item outside the candidate set")
    success = bool(feedback_oracle(t, chosen))
    return learn_from_feedback(
        p, q, chosen, success, catalog, schedule.eta(t), update_mode, t,
        getattr(q, "query_id", ""), clip_propensity,
    )


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
    catalog.check_changes(delta.removed, delta.added)
    for item_id in delta.removed:
        catalog.remove_item(item_id)
    for item_id, init in delta.added:
        catalog.add_item(item_id, init)


@dataclass
class MultiHopRound:
    """Ordered sub-queries for one round plus the per-hop judge."""

    subqueries: list[QueryEmbedding]
    judge: Judge

    def __post_init__(self):
        if not self.subqueries:
            raise InvalidConfig("multi-hop round needs at least one sub-query")


def step_multihop(
    round_: MultiHopRound,
    catalog: Catalog,
    rng: RandomSource,
    schedule: LearningRateSchedule,
    t: int,
    update_mode: UpdateMode = UpdateMode.FULL,
    clip_propensity: float | None = None,
) -> list[RoundRecord]:
    """Run one hop per sub-query, updating the catalog within the round.

    Hop h+1 scores against the catalog already updated by hop h; the returned
    records carry one entry per hop in hop order.
    """
    records: list[RoundRecord] = []
    eta = schedule.eta(t)
    for h, q in enumerate(round_.subqueries, start=1):
        p = score(q, catalog)
        chosen = sample_one(p, rng)
        success = bool(int(round_.judge(q, chosen)))
        records.append(learn_from_feedback(
            p, q, chosen, success, catalog, eta, update_mode, t,
            q.query_id or f"t{t}h{h}", clip_propensity,
        ))
    return records
