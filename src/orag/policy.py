"""Softmax retrieval policy: scoring and seeded sampling.

Probabilities follow the softmax of query/row inner products, computed with
max-logit subtraction so large norms cannot overflow. Sampling is inverse-CDF
over the catalog's sorted id order, consuming exactly one uniform draw per
item drawn, so (seed, event log) fully reproduces a run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, ItemId
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

    def spawn(self, key: int) -> "RandomSource":
        """Independent child stream, deterministic in (seed, key)."""
        return RandomSource(np.random.SeedSequence([self.seed, int(key)]).generate_state(1)[0])


@dataclass
class ProbabilityVector:
    """Softmax probabilities over the catalog's items, in sorted-id order."""

    ids: tuple[ItemId, ...]
    probs: np.ndarray
    generation: int

    def __getitem__(self, item_id: ItemId) -> float:
        return float(self.probs[self.index_of(item_id)])

    def index_of(self, item_id: ItemId) -> int:
        """Bisects the sorted ids `score` makes; unsorted hand-built ids fall back to a scan."""
        k = bisect.bisect_left(self.ids, item_id) if isinstance(item_id, str) else 0
        if k < len(self.ids) and self.ids[k] == item_id:
            return k
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
    # The ufuncs' own reduce: `.all()`/`.max()`/`.sum()`'s bits without their wrappers.
    if not np.logical_and.reduce(np.isfinite(qv)):
        raise NonFiniteInput("query contains non-finite entries")
    logits = catalog.logits(qv)
    logits -= np.maximum.reduce(logits)
    # exp underflows to exact zero below ~-745; the softmax of finite logits
    # is mathematically positive, so floor the gap to keep every entry > 0.
    np.maximum(logits, -700.0, out=logits)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits)
    return ProbabilityVector(catalog.ids, logits, catalog.generation)


def sample_one(p: ProbabilityVector, rng: RandomSource) -> ItemId:
    """Draw one item by inverse CDF; consumes exactly one uniform."""
    u = rng.uniform()
    cdf = np.add.accumulate(p.probs)  # np.cumsum's ufunc, without its wrapper
    idx = int(cdf.searchsorted(u * cdf[-1], side="right"))
    return p.ids[min(idx, len(p.ids) - 1)]


def sample_k_without_replacement(
    p: ProbabilityVector, k: int, rng: RandomSource
) -> list[ItemId]:
    """Sequential renormalized draws; output order equals draw order."""
    if k < 1 or k > len(p.ids):
        raise KTooLarge(f"K={k} with I={len(p.ids)} items")
    w = np.array(p.probs)  # a drawn item's weight becomes zero
    cdf = np.add.accumulate(w)
    last, picks = len(w) - 1, []  # last live item: the pick when u * cdf[-1] rounds to cdf[-1]
    while True:
        j = min(int(cdf.searchsorted(rng.uniform() * cdf[-1], side="right")), last)
        picks.append(j)
        if len(picks) == k:
            return [p.ids[i] for i in picks]
        while last in picks:
            last -= 1
        # Redo the CDF from j on, seeded with the unchanged cdf[j-1]: cumsum
        # adds left to right, so these are the bits of a whole recompute.
        w[j] = cdf[j - 1] if j else 0.0
        np.add.accumulate(w[j:], out=cdf[j:])
        w[j] = 0.0
