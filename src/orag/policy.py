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
from dataclasses import dataclass
from operator import neg

import numpy as np

from .catalog import Catalog, ItemId, SortedIds
from .errors import DimensionMismatch, EmptyCatalog, KTooLarge, NonFiniteInput


@dataclass
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


@dataclass
class ProbabilityVector:
    """Softmax probabilities over the catalog's items, in sorted-id order."""

    ids: SortedIds | tuple[ItemId, ...]
    probs: np.ndarray

    def __getitem__(self, item_id: ItemId) -> float:
        return float(self.probs[self.index_of(item_id)])

    def index_of(self, item_id: ItemId) -> int:
        """The ids' own `index`: `SortedIds` bisects, a hand-built tuple scans."""
        try:
            return self.ids.index(item_id)
        except ValueError:
            raise KeyError(item_id) from None

    def __len__(self) -> int:
        return len(self.ids)


def score(q, catalog: Catalog) -> ProbabilityVector:
    """Softmax of inner products between the query and every catalog row."""
    if len(catalog) == 0:
        raise EmptyCatalog("cannot score an empty catalog")
    qv = _as_query(q)
    if qv.shape != (catalog.dim,):
        raise DimensionMismatch(f"query length {qv.shape[0]} != catalog dim {catalog.dim}")
    logits = catalog.logits(qv)
    # The ufuncs' own reduce: `.all()`/`.max()`/`.sum()`'s bits without their wrappers.
    top = np.maximum.reduce(logits)
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
    return ProbabilityVector(catalog.ids, logits)


def sample_one(p: ProbabilityVector, rng: RandomSource) -> ItemId:
    """Draw one item by inverse CDF; consumes exactly one uniform."""
    u = rng.uniform()
    cdf = np.add.accumulate(p.probs)  # np.cumsum's ufunc, without its wrapper
    idx = int(cdf.searchsorted(u * cdf[-1], side="right"))
    return p.ids[min(idx, len(p.ids) - 1)]


def _exact_pick(w: np.ndarray, drawn: list[int], u: float) -> int:
    """Inverse CDF over `w` with the `drawn` weights set to zero, summed left to right."""
    live = np.array(w)
    live[drawn] = 0.0
    cdf = np.add.accumulate(live)
    return int(cdf.searchsorted(u * cdf[-1], side="right"))


def sample_k_without_replacement(
    p: ProbabilityVector, k: int, rng: RandomSource
) -> list[ItemId]:
    """Sequential renormalized draws; output order equals draw order.

    A draw picks what `_exact_pick` picks. It searches the first draw's CDF
    less the weight drawn at or before each position, and keeps that pick when
    it clears the target by an error bound on both sides.
    """
    n = len(p.ids)
    if k < 1 or k > n:
        raise KTooLarge(f"K={k} with I={n} items")
    w = p.probs
    cdf = np.add.accumulate(w)
    # tol bounds the summation error of this CDF and of the exact one
    # (gamma_n·total each), of `below`, and the rounding of u·total, in
    # u·total's dtype. The bound needs a monotone CDF: no negative weight.
    tol = 4 * (n + k + 2) * np.finfo((1.0 * cdf[-1]).dtype).eps * cdf[-1]
    certify = tol < np.inf and np.minimum.reduce(w) >= 0
    # Over the sorted drawn positions, row c holds below[c], the weight of the c lowest, and
    # -cut[c], minus the undrawn weight before the (c+1)-th lowest; one assignment shifts both.
    drawn, bc = [], np.zeros((k, 2), cdf.dtype)
    below, ncut = bc[:, 0], bc[:, 1]
    last, picks = n - 1, []  # last live item: the pick when u * total rounds to total
    while True:
        u, r = rng.uniform(), len(drawn)
        t = u * (cdf[-1] - below[r])
        # The drawn positions whose cut is at most t lie before the pick: pass t plus their weight.
        j = int(cdf.searchsorted(t + below[bisect.bisect_right(ncut, t, 0, r, key=neg)], "right"))
        if r and not (certify and j < n and cdf[j] - below[bisect.bisect_right(drawn, j)] - t > tol
                      and (j == 0 or t - cdf[j - 1] + below[bisect.bisect_left(drawn, j)] > tol)):
            j = _exact_pick(w, drawn, u)
        j = min(j, last)
        picks.append(j)
        if len(picks) == k:
            return [p.ids[i] for i in picks]
        i = bisect.bisect_left(drawn, j)
        drawn.insert(i, j)
        bc[i + 1 : r + 2] = bc[i : r + 1] + w[j]  # -cut[r + 1] is not read
        ncut[i] = below[i + 1] - cdf[j]
        while i >= 0 and drawn[i] == last:  # the drawn tail is contiguous; step below it
            i, last = i - 1, last - 1
