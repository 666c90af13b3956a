"""Losses, the hindsight-optimal trainer, regret curves, and IR metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog, ItemId, ProjectionMode, _project_rows
from .errors import (
    EmptyEvents,
    InvalidProbability,
    MissingGroundTruth,
    NoRelevantItems,
    UnknownId,
    WindowTooLarge,
)
from .policy import ProbabilityVector, _as_query


def cross_entropy_loss(p: ProbabilityVector, i_star: ItemId) -> float:
    """-ln p[i_star]; `math.inf` where p[i_star] is 0, as `regret_curve`'s losses are."""
    try:
        prob = p[i_star]
    except KeyError:
        raise UnknownId(i_star) from None
    if not prob >= 0:  # negative or NaN: only a hand-built vector holds one
        raise InvalidProbability(f"p[{i_star!r}] is {prob}, not a probability")
    return math.inf if prob == 0 else -math.log(prob)


def softmax_columns(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax with max subtraction down each column of an (I, T) logit block, so each
    reduction and broadcast runs over I contiguous T-long rows, not T rows of I.

    The result goes to `out` when given (it may be `logits` itself), else to a
    new array; `logits` is changed only through `out`."""
    z = np.subtract(logits, np.maximum.reduce(logits, axis=0), out=out)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=0)
    return z


def _event_arrays(
    events: Sequence[tuple[np.ndarray, ItemId]], catalog: Catalog
) -> tuple[np.ndarray, np.ndarray]:
    queries = np.stack([_as_query(q) for q, _ in events])
    index = {i: k for k, i in enumerate(catalog.ids)}
    try:
        labels = np.array([index[i_star] for _, i_star in events])
    except KeyError as e:
        raise UnknownId(str(e)) from None
    return queries, labels


def total_loss(
    theta: np.ndarray, queries: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None
) -> float:
    """Summed cross-entropy of `labels` under the column softmax of the item-major
    (I, T) scores `theta @ queries.T`; an (I, T) `out` is left holding it."""
    p = np.matmul(theta, queries.T, out=out)
    softmax_columns(p, out=p)
    return float(-np.sum(np.log(p[labels, np.arange(len(labels))])))


@dataclass
class OracleFit:
    catalog: Catalog
    loss: float
    passes: int
    converged: bool  # stopped on `tol` or on a step that cannot descend, not on the budget


def train_oracle(
    events: Sequence[tuple[np.ndarray, ItemId]],
    init: Catalog,
    passes: int = 10_000,
    lr: float = 0.05,
    tol: float = 1e-9,
) -> OracleFit:
    """Full-information gradient descent toward the hindsight optimum.

    Deterministic multi-pass descent on the summed cross-entropy with exact
    gradients (p_i - 1{i=i*}) q per event. Backtracks (halves the step) when a
    pass would increase the loss, so the final loss never exceeds the initial
    one; stops once the pass-over-pass improvement drops below `tol` or no
    step descends (`converged`), or once the pass budget is exhausted. Each
    candidate's softmax is computed once, item-major: the accepted one's (I, T)
    probabilities give the next pass's gradient. A UNIT_BALL `init.projection`
    projects each candidate before it is scored.
    """
    if len(events) == 0:
        raise EmptyEvents("oracle needs at least one event")
    queries, labels = _event_arrays(events, init)
    theta = init.matrix().astype(np.float64, copy=False)
    cols = np.arange(len(labels))
    p, cand_p = np.empty((2, len(init), len(labels)))  # current and candidate softmax
    loss = total_loss(theta, queries, labels, out=p)
    step = lr
    used = 0
    converged = True
    for it in range(passes):
        p[labels, cols] -= 1.0  # p - onehot: subtracting 0.0 elsewhere is exact
        grad = p @ queries
        while True:
            cand = theta - step * grad
            if init.projection is ProjectionMode.UNIT_BALL:
                _project_rows(cand, init.projection)
            cand_loss = total_loss(cand, queries, labels, out=cand_p)
            if cand_loss <= loss or step < 1e-16:
                break
            step *= 0.5
        used = it + 1
        if cand_loss > loss:
            break
        improved = loss - cand_loss
        theta, loss, p, cand_p = cand, cand_loss, cand_p, p
        step *= 1.05  # cautious growth; backtracking undoes overshoot
        if improved < tol:
            break
    else:
        converged = False
    fitted = Catalog.from_rows(init.dim, init.ids, theta, projection=init.projection)
    return OracleFit(catalog=fitted, loss=loss, passes=used, converged=converged)


@dataclass
class RegretLedger:
    online_loss: np.ndarray
    oracle_loss: np.ndarray
    cumulative_regret: np.ndarray

    def __len__(self) -> int:
        return len(self.online_loss)

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret[-1])


def regret_curve(episode_log, oracle: Catalog) -> RegretLedger:
    """Per-record online/oracle losses and the running regret sum.

    `episode_log` must expose each record's query, ground-truth item, and the
    online loss recorded during the run (a multi-hop round logs one record per
    hop). The sum runs over the records that have an online loss: one whose
    target was not in the catalog (an item the dynamic variant still
    withholds) records NaN and adds nothing.
    """
    online = np.asarray(episode_log.online_losses, dtype=np.float64)
    missing = np.isnan(online)
    if missing.all():  # run with record_losses=False: no regret to sum
        raise MissingGroundTruth("episode log has no online losses")
    queries, labels = _event_arrays(
        list(zip(episode_log.queries, episode_log.true_items)), oracle
    )
    p = oracle.matrix().astype(np.float64, copy=False) @ queries.T
    softmax_columns(p, out=p)
    oracle_losses = -np.log(p[labels, np.arange(len(labels))])
    gap = online - oracle_losses
    gap[missing] = 0.0
    return RegretLedger(
        online_loss=online,
        oracle_loss=oracle_losses,
        cumulative_regret=np.cumsum(gap),
    )


@dataclass
class RankedList:
    """ItemIds ordered by descending probability, ties broken by id order."""

    order: tuple[ItemId, ...]
    relevant: frozenset

    @classmethod
    def from_probabilities(cls, p: ProbabilityVector, relevant) -> "RankedList":
        ids = list(p.ids)
        rank = np.empty(len(ids), np.intp)  # rank[k]: ids[k]'s place in id order
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        order = np.lexsort((rank, -p.probs))
        return cls(tuple(map(ids.__getitem__, order.tolist())), frozenset(relevant))


def recall_at_k(ranked: RankedList, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranked.relevant:
        raise NoRelevantItems("recall undefined without relevant items")
    top = set(ranked.order[:k])
    return len(top & ranked.relevant) / len(ranked.relevant)


def ndcg_at_k(ranked: RankedList, k: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank + 1) discounts, ranks from 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ranked.relevant:
        raise NoRelevantItems("ndcg undefined without relevant items")
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, item in enumerate(ranked.order[:k], start=1)
        if item in ranked.relevant
    )
    ideal_hits = min(k, len(ranked.relevant))
    idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, ideal_hits + 1))
    return dcg / idcg


def truth_recall_ndcg(p: ProbabilityVector, truth: ItemId, k: int) -> tuple[float, float]:
    """recall@k and ndcg@k of `RankedList.from_probabilities(p, {truth})`, from the
    truth's rank alone: 1 + #(p > p_truth) + #(p == p_truth at an earlier id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pt = p[truth]
    rank = 1 + int(np.count_nonzero(p.probs > pt))
    rank += sum(p.ids[j] < truth for j in np.flatnonzero(p.probs == pt).tolist())
    return (1.0, 1.0 / math.log2(rank + 1)) if rank <= k else (0.0, 0.0)


def rolling_accuracy(successes: Sequence[bool], window: int) -> np.ndarray:
    """Windowed mean of success bits; output length is len(successes)-window+1."""
    bits = np.asarray(successes, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(bits):
        raise WindowTooLarge(f"window {window} > {len(bits)} rounds")
    csum = np.concatenate([[0.0], np.cumsum(bits)])
    return (csum[window:] - csum[:-window]) / window
