"""Softmax retrieval policy: scoring and seeded sampling.

Probabilities follow the softmax of query/row inner products, computed with
max-logit subtraction so large norms cannot overflow. Sampling is inverse-CDF
over the catalog's sorted id order, consuming exactly one uniform draw per
item drawn, so (seed, event log) fully reproduces a run. K-sampling builds one
CDF per call and keeps a pick only when an error bound proves it is the pick of
the exact per-draw CDF; a pick too close to call rebuilds that CDF.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, ItemId, SortedIds
from .errors import DimensionMismatch, EmptyCatalog, KTooLarge, NonFiniteInput


@dataclass(slots=True)
class QueryEmbedding:
    q: np.ndarray
    query_id: str = ""

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64).ravel()


def _as_query(q) -> np.ndarray:
    if isinstance(q, QueryEmbedding):
        return q.q
    return np.asarray(q, dtype=np.float64).ravel()


class RandomSource:
    """Deterministic uniform stream; identical seed => identical draws."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def uniform(self) -> float:
        return float(self._gen.random())


@dataclass(slots=True)
class ProbabilityVector:
    """Softmax probabilities over the catalog's items, in sorted-id order."""

    ids: SortedIds | tuple[ItemId, ...]
    probs: np.ndarray
    # (ids, id, index) of the last `index_of`: a round looks its chosen id up in
    # `step` and again in the estimator, and the second lookup is this check.
    _found: tuple = field(default=(), init=False, repr=False, compare=False)

    def __getitem__(self, item_id: ItemId) -> float:
        return float(self.probs[self.index_of(item_id)])

    def index_of(self, item_id: ItemId) -> int:
        """The ids' own `index`: `SortedIds` bisects, a hand-built tuple scans."""
        found = self._found
        if found and found[1] is item_id and found[0] is self.ids:
            return found[2]
        try:
            k = self.ids.index(item_id)
        except ValueError:
            raise KeyError(item_id) from None
        self._found = (self.ids, item_id, k)
        return k

    def __len__(self) -> int:
        return len(self.ids)


def score(q, catalog: Catalog) -> ProbabilityVector:
    """Softmax of inner products between the query and every catalog row, read-only.

    The catalog keeps a weak reference to its last result: while a caller still holds
    that array, a repeat call at the same `generation` with a byte-equal float64 query
    returns it and reads no rows. Every successful mutation bumps `generation`, so a
    kept result is never stale, and the catalog keeps no array alive.
    """
    if len(catalog) == 0:
        raise EmptyCatalog("cannot score an empty catalog")
    qv = _as_query(q)
    if qv.shape != (catalog.dim,):
        raise DimensionMismatch(f"query length {qv.shape[0]} != catalog dim {catalog.dim}")
    generation, raw = catalog.generation, qv.tobytes()
    kept = catalog._scored
    if kept and kept[0] == generation and kept[1] == raw and (kept := kept[2]()) is not None:
        return ProbabilityVector(catalog.ids, kept)
    logits = catalog.logits(qv)
    # The largest logit read at its `argmax` (the first NaN, if any), which costs less than
    # a max's reduce: at a tie of 0.0 and -0.0 either sign gives the same p. The ufuncs'
    # own reduce: `.all()`/`.sum()`'s bits without their wrappers.
    top = logits[logits.argmax()]
    if not math.isfinite(top):  # a NaN logit makes the max NaN; a finite q's logits can overflow
        if not np.logical_and.reduce(np.isfinite(qv)):
            raise NonFiniteInput("query contains non-finite entries")
        raise NonFiniteInput(f"logits overflow: the largest is {top}")
    logits -= top
    # exp underflows to exact zero below ~-745; the softmax of finite logits
    # is mathematically positive, so floor the gap to keep every entry > 0.
    np.maximum(logits, -700.0, out=logits)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits)
    logits.setflags(write=False)  # shared with every later hit
    catalog._scored = (generation, raw, weakref.ref(logits))
    return ProbabilityVector(catalog.ids, logits)


def _inverse_cdf(w: np.ndarray, u: float) -> tuple[np.ndarray, int]:
    """`w`'s CDF, summed left to right, and the index of u * total's bin, at most the last."""
    cdf = np.add.accumulate(w)  # np.cumsum's ufunc, without its wrapper
    return cdf, min(int(cdf.searchsorted(u * cdf[-1], side="right")), len(w) - 1)


def sample_one(p: ProbabilityVector, rng: RandomSource) -> ItemId:
    """Draw one item by inverse CDF, K-sampling's first draw; consumes exactly one uniform."""
    probs = p.probs
    if not len(probs):  # a hand-built vector can be empty; raise before drawing
        raise EmptyCatalog("cannot sample from an empty probability vector")
    return p.ids[_inverse_cdf(probs, rng.uniform())[1]]


def _exact_pick(w: np.ndarray, drawn: list[int], u: float) -> int:
    """Inverse CDF over `w` with the `drawn` weights set to zero, summed left to right."""
    live = np.array(w)
    live[drawn] = 0.0
    return _inverse_cdf(live, u)[1]


def sample_k_without_replacement(
    p: ProbabilityVector, k: int, rng: RandomSource
) -> list[ItemId]:
    """Sequential renormalized draws; output order equals draw order.

    The first draw is `sample_one`'s. A later one picks what `_exact_pick` picks: it
    searches the first draw's CDF less the weight drawn at or before each position, and
    keeps that pick when it clears the target by an error bound on both sides.
    """
    n = len(p.ids)
    if k < 1 or k > n:
        raise KTooLarge(f"K={k} with I={n} items")
    w = p.probs
    cdf, j = _inverse_cdf(w, rng.uniform())
    # tol bounds the summation error of this CDF and of the exact one
    # (gamma_n·total each), of `below`, and the rounding of u·total, in
    # u·total's dtype. The bound needs a monotone CDF: no negative weight.
    tol = 4 * (n + k + 2) * np.finfo((1.0 * cdf[-1]).dtype).eps * cdf[-1]
    certify = tol < np.inf and np.minimum.reduce(w) >= 0
    # Over the sorted drawn positions, below[c] is the weight of the c lowest and cut[c] the
    # undrawn weight before the (c+1)-th lowest, kept as scalars of the CDF's own type.
    num = float if cdf.dtype == np.float64 else cdf.dtype.type
    drawn, below, cut, total = [], [num(0)], [], num(cdf[-1])
    last, picks = n - 1, [j]  # last live item: the pick when u * total rounds to total
    while len(picks) < k:
        i, wj = bisect.bisect_left(drawn, j), num(w[j])
        drawn.insert(i, j)
        below[i + 1:] = [b + wj for b in below[i:]]  # one longer: j's weight joins
        cut[i:] = [c - wj for c in cut[i:]]
        cut.insert(i, num(cdf[j]) - below[i + 1])
        while i >= 0 and drawn[i] == last:  # the drawn tail is contiguous; step below it
            i, last = i - 1, last - 1
        u, r = rng.uniform(), len(drawn)
        t = u * (total - below[r])
        # The drawn positions whose cut is at most t lie before the pick: pass t plus their weight.
        j = int(cdf.searchsorted(t + below[bisect.bisect_right(cut, t)], "right"))
        if not (certify and j < n and cdf[j] - below[bisect.bisect_right(drawn, j)] - t > tol
                and (j == 0 or t - cdf[j - 1] + below[bisect.bisect_left(drawn, j)] > tol)):
            j = _exact_pick(w, drawn, u)
        j = min(j, last)
        picks.append(j)
    return [p.ids[i] for i in picks]
