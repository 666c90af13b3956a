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
    NonFiniteInput,
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
    if not 0 <= prob <= 1:  # negative, above 1, infinite or NaN: only a hand-built vector
        raise InvalidProbability(f"p[{i_star!r}] is {prob}, not a probability")
    return math.inf if prob == 0 else -math.log(prob)


def _labels(items: Sequence[ItemId], catalog: Catalog) -> np.ndarray:
    """Each item's row in `catalog.ids` order; an id not in it is `UnknownId`."""
    index = {i: k for k, i in enumerate(catalog.ids)}
    try:
        return np.fromiter(map(index.__getitem__, items), np.intp, len(items))
    except KeyError as e:
        raise UnknownId(str(e)) from None


def _finite_queries(queries: np.ndarray) -> np.ndarray:
    """The (T, d) `queries`, or `NonFiniteInput` naming the first event with a non-finite one."""
    finite = np.isfinite(queries).all(axis=1)
    if not finite.all():
        raise NonFiniteInput(f"event {int(np.argmin(finite))}: query contains non-finite entries")
    return queries


# While every column sum s_t of exp(z - c) lies here, the largest term of each
# column is a normal float and no term overflowed, so the block can be used as it is.
_SUM_RANGE = (1e-300, 1e300)


def _exp_in_place(x: np.ndarray, flat: np.ndarray,
                  sums: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(x at `flat`, column sums of exp(x)) for an (I, T) block x, left holding exp(x)."""
    x_true = x.take(flat)
    with np.errstate(over="ignore", under="ignore"):  # an unshifted block: the sums show it
        np.exp(x, out=x)
        return x_true, np.add.reduce(x, axis=0, out=sums)


def _column_terms(
    theta: np.ndarray, queries: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None,
    *, sums: np.ndarray | None = None, exact: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """(z[y_t, t] - c_t, s) per column t of the item-major (I, T) scores z = `theta @
    queries.T`, s_t = sum_i exp(z[i, t] - c_t): event t's cross-entropy is their
    difference, log s_t - (z[y_t, t] - c_t), finite even where its p underflows.

    An (I, T) `out` is left holding exp(z - c), not probabilities, and a (T,) `sums`
    the column sums s. c is each column's exact max. With `exact` False, c is 0,
    which costs no max or subtract pass, unless a column sum leaves `_SUM_RANGE`:
    then the block is redone with the exact max.
    """
    labels = np.asarray(labels)
    if out is None:
        out = np.empty((len(theta), len(labels)))
    flat = labels * out.shape[1] + np.arange(out.shape[1])  # (y_t, t) in the flat block
    np.matmul(theta, queries.T, out=out)
    if not exact:
        z_true, s = _exp_in_place(out, flat, sums)
        lo, hi = _SUM_RANGE
        if lo <= s.min(initial=hi) and s.max(initial=lo) <= hi:
            return z_true, s
        np.matmul(theta, queries.T, out=out)
    out -= np.maximum.reduce(out, axis=0)
    return _exp_in_place(out, flat, sums)


def total_loss(
    theta: np.ndarray, queries: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None,
    *, sums: np.ndarray | None = None,
) -> float:
    """sum_t log s_t - sum_t (z[y_t, t] - c_t) of `_column_terms`: the summed cross-entropy,
    floored at 0.0 (with c = 0, a one-item block's log s - z can miss 0 by ulps); NaN stays NaN."""
    z_true, s = _column_terms(theta, queries, labels, out, sums=sums, exact=False)
    loss = float(np.sum(np.log(s)) - np.sum(z_true))
    return 0.0 if loss < 0 else loss


@dataclass
class OracleFit:
    catalog: Catalog
    loss: float
    passes: int
    converged: bool  # stopped on `tol` or on a step that cannot descend, not on the budget
    grad_norm: float  # Frobenius norm of the last accepted pass's gradient; NaN if none


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
    candidate is scored once, item-major, as one (I, T) block exp(z), redone as
    exp(z - max z) only if a column sum leaves range (see `_column_terms`); the
    accepted one's block E and column sums s give the next pass's gradient
    E @ (Q / s) - S, with S = sum_t e_{y_t} q_t^T taken once. A UNIT_BALL
    `init.projection` projects each candidate before it is scored.
    """
    if len(events) == 0:
        raise EmptyEvents("oracle needs at least one event")
    queries, items = zip(*events)
    labels = _labels(items, init)
    n, d, T = len(init), init.dim, len(labels)
    e, cand_e = np.empty((2, n, T))  # exp(z - c) of the current and the candidate rows
    s, cand_s = np.empty((2, T))  # their column sums
    theta = init.matrix().astype(np.float64, copy=False)
    queries = _finite_queries(np.array([_as_query(q) for q in queries]))
    loss = total_loss(theta, queries, labels, out=e, sums=s)
    qt = np.ascontiguousarray(queries.T)  # (d, T): each candidate's matmul reads it
    del queries  # qt holds the queries from here on
    label_sums = np.zeros((n, d))  # S
    np.add.at(label_sums, labels, qt.T)
    scaled = np.empty((d, T))  # (Q / s)^T
    step = lr
    used = 0
    converged = True
    accepted = None
    for it in range(passes):
        np.divide(qt, s, out=scaled)
        grad = e @ scaled.T
        grad -= label_sums
        while True:
            cand = theta - step * grad
            if init.projection is ProjectionMode.UNIT_BALL:
                _project_rows(cand, init.projection)
            cand_loss = total_loss(cand, qt.T, labels, out=cand_e, sums=cand_s)
            if cand_loss <= loss or step < 1e-16:
                break
            step *= 0.5
        used = it + 1
        if cand_loss > loss:
            break
        improved = loss - cand_loss
        theta, loss, accepted = cand, cand_loss, grad
        e, cand_e, s, cand_s = cand_e, e, cand_s, s
        step *= 1.05  # cautious growth; backtracking undoes overshoot
        if improved < tol:
            break
    else:
        converged = False
    fitted = Catalog.from_rows(d, init.ids, theta, projection=init.projection)
    grad_norm = math.nan if accepted is None else float(np.linalg.norm(accepted))
    return OracleFit(catalog=fitted, loss=loss, passes=used, converged=converged,
                     grad_norm=grad_norm)


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
    withholds) records NaN and adds nothing. A non-finite query is `NonFiniteInput`.
    """
    online = np.asarray(episode_log.online_losses, dtype=np.float64)
    missing = np.isnan(online)
    if missing.all():  # no record has an online loss: no regret to sum
        raise MissingGroundTruth("episode log has no online losses")
    queries = _finite_queries(np.asarray(episode_log.queries, dtype=np.float64))
    labels = _labels(episode_log.true_items, oracle)
    z_true, s = _column_terms(oracle.matrix().astype(np.float64, copy=False), queries, labels)
    oracle_losses = np.log(s) - z_true  # >= 0: c the exact max, z - c <= 0 and s >= 1 exactly
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
    try:
        pt = p[truth]
    except KeyError:
        raise UnknownId(truth) from None
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
