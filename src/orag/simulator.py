"""Synthetic online environments and the episode runner.

Ground truth is a set of unit-norm latent directions, one per item. A query
for item i is its latent direction plus Gaussian noise, renormalized; the
feedback oracle is an exact match against the per-round optimal item. Streams
are deterministic in the environment seed, and support an optional
mid-stream remap of query clusters to new ground-truth items (distribution
shift) plus multi-pass replay of the query list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .catalog import Catalog, ItemId, ProjectionMode
from .errors import InvalidConfig, UndefinedRound
from .learner import (
    LearningRateSchedule,
    RoundRecord,
    ScheduleKind,
    UpdateMode,
    step,
)
from .metrics import cross_entropy_loss
from .policy import QueryEmbedding, RandomSource, score


class Variant(enum.Enum):
    PLAIN = "plain"
    RERANK = "rerank"
    DYNAMIC = "dynamic"
    MULTIHOP = "multihop"


@dataclass
class EpisodeConfig:
    T: int
    I: int
    d: int
    K: int = 1
    variant: Variant = Variant.PLAIN
    update_mode: UpdateMode = UpdateMode.FULL
    schedule: LearningRateSchedule = field(
        default_factory=lambda: LearningRateSchedule(ScheduleKind.INVERSE_SQRT, 1e-5)
    )
    projection: ProjectionMode = ProjectionMode.NONE
    repeat_passes: int = 1
    clip_propensity: float | None = None

    def __post_init__(self):
        if self.T < 1 or self.I < 1 or self.d < 1:
            raise InvalidConfig("T, I, d must all be >= 1")
        if not (1 <= self.K <= self.I):
            raise InvalidConfig(f"K must lie in [1, I]; got K={self.K}, I={self.I}")
        if self.repeat_passes < 1:
            raise InvalidConfig("repeat_passes must be >= 1")


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


@dataclass
class Environment:
    """Latent item directions plus a deterministic (q_t, i*_t) stream."""

    true_items: dict[ItemId, np.ndarray]
    noise_scale: float
    seed: int
    horizon: int
    shift_round: int | None = None
    shift_fraction: float = 0.5
    repeat_passes: int = 1
    _queries: np.ndarray = field(init=False, repr=False)
    _targets: list[ItemId] = field(init=False, repr=False)
    _clusters: list[ItemId] = field(init=False, repr=False)

    def __post_init__(self):
        ids = sorted(self.true_items)
        latents = np.stack([self.true_items[i] for i in ids])
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        base_t = self.horizon
        picks = rng.integers(0, len(ids), size=base_t)
        noise = rng.normal(0.0, self.noise_scale, size=(base_t, latents.shape[1]))
        raw = latents[picks] + noise
        base_queries = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        base_clusters = [ids[k] for k in picks]

        # Shift: remap a fraction of query clusters to new ground-truth items
        # from the given round on. Queries keep their geometry; labels move.
        remap = {i: i for i in ids}
        if self.shift_round is not None:
            n_shift = int(round(self.shift_fraction * len(ids)))
            shifted = list(rng.choice(ids, size=n_shift, replace=False))
            rotated = shifted[1:] + shifted[:1]
            remap.update(dict(zip(shifted, rotated)))

        order = np.arange(base_t * self.repeat_passes) % base_t
        for p in range(1, self.repeat_passes):
            seg = order[p * base_t : (p + 1) * base_t]
            rng.shuffle(seg)
        self._queries = base_queries[order]
        self._clusters = [base_clusters[k] for k in order]
        self._targets = []
        for t0, cluster in enumerate(self._clusters):
            shifted_now = self.shift_round is not None and t0 + 1 >= self.shift_round
            self._targets.append(remap[cluster] if shifted_now else cluster)

    @property
    def total_rounds(self) -> int:
        return self.horizon * self.repeat_passes

    @property
    def dim(self) -> int:
        return len(next(iter(self.true_items.values())))

    def query_at(self, t: int) -> QueryEmbedding:
        if not (1 <= t <= self.total_rounds):
            raise UndefinedRound(f"round {t} outside 1..{self.total_rounds}")
        return QueryEmbedding(self._queries[t - 1], query_id=f"q{t}")

    def optimal_item(self, t: int) -> ItemId:
        if not (1 <= t <= self.total_rounds):
            raise UndefinedRound(f"round {t} outside 1..{self.total_rounds}")
        return self._targets[t - 1]

    def max_query_norm(self) -> float:
        return float(np.max(np.linalg.norm(self._queries, axis=1)))


def make_environment(
    config: EpisodeConfig,
    seed: int,
    noise_scale: float = 0.3,
    shift_round: int | None = None,
    shift_fraction: float = 0.5,
) -> Environment:
    """Draw unit-sphere latent directions and build the query stream."""
    if noise_scale < 0:
        raise InvalidConfig("noise_scale must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    latents = rng.normal(size=(config.I, config.d))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    ids = [f"item{k:04d}" for k in range(config.I)]
    return Environment(
        true_items=dict(zip(ids, latents)),
        noise_scale=noise_scale,
        seed=int(seed),
        horizon=config.T,
        shift_round=shift_round,
        shift_fraction=shift_fraction,
        repeat_passes=config.repeat_passes,
    )


def initial_catalog(
    env: Environment,
    init_noise: float = 0.0,
    projection: ProjectionMode = ProjectionMode.NONE,
    restrict_to: Sequence[ItemId] | None = None,
) -> Catalog:
    """Rows = normalize(latent + init_noise * gaussian); seeded by env.seed."""
    rng = np.random.default_rng(np.random.SeedSequence([env.seed, 2]))
    ids = sorted(env.true_items)
    rows = []
    for item_id in ids:
        latent = env.true_items[item_id]
        noisy = latent + init_noise * rng.normal(size=latent.shape)
        rows.append((item_id, _unit(noisy)))
    if restrict_to is not None:
        keep = set(restrict_to)
        rows = [r for r in rows if r[0] in keep]
    return Catalog(env.dim, rows, projection=projection)


def feedback_oracle(env: Environment, t: int, chosen: ItemId) -> bool:
    return chosen == env.optimal_item(t)


def init_embedder(env: Environment, noise: float = 0.3):
    """Stub initializer for late-added items: latent direction plus noise."""
    rng = np.random.default_rng(np.random.SeedSequence([env.seed, 3]))

    def init(item_id: ItemId) -> np.ndarray:
        return _unit(env.true_items[item_id] + noise * rng.normal(size=env.dim))

    return init


def half_withheld_scenario(
    env: Environment, insert_round: int | None = None, new_item_noise: float = 0.3
):
    """Withhold half of the items until mid-stream, then insert them.

    Returns (initial_ids, deltas) for the dynamic variant: the catalog starts
    with the first half of the sorted ids and the second half arrives as one
    CatalogDelta at `insert_round` (default: total_rounds // 2), initialized
    by the stub embedder.
    """
    from .variants import CatalogDelta

    ids = sorted(env.true_items)
    half = len(ids) // 2
    initial_ids, withheld = ids[:half], ids[half:]
    if insert_round is None:
        insert_round = max(1, env.total_rounds // 2)
    embed = init_embedder(env, noise=new_item_noise)
    delta = CatalogDelta(
        added=[(i, embed(i)) for i in withheld],
        removed=[],
        effective_at=insert_round,
    )
    return initial_ids, {insert_round: delta}


def make_multihop_rounds(env: Environment, hops: int = 2) -> dict:
    """Per-round multi-hop sub-queries with an exact-match judge.

    Hop h of round t reuses the environment's stream geometry: the sub-query
    is a noisy copy of a seeded per-(t, h) target item's latent direction, and
    the judge returns 1 exactly when the chosen item is that target.
    """
    from .variants import MultiHopRound

    ids = sorted(env.true_items)
    latents = np.stack([env.true_items[i] for i in ids])
    rng = np.random.default_rng(np.random.SeedSequence([env.seed, 5]))
    total = env.total_rounds
    picks = rng.integers(0, len(ids), size=(total, hops))
    noise = rng.normal(0.0, env.noise_scale, size=(total, hops, env.dim))
    rounds = {}
    for t in range(1, total + 1):
        targets = [ids[k] for k in picks[t - 1]]
        subqueries = []
        for h in range(hops):
            raw = latents[picks[t - 1, h]] + noise[t - 1, h]
            subqueries.append(QueryEmbedding(_unit(raw), query_id=f"t{t}h{h + 1}"))
        truth = {sq.query_id: tgt for sq, tgt in zip(subqueries, targets)}
        judge = (lambda tr: lambda q, chosen: int(chosen == tr[q.query_id]))(truth)
        rounds[t] = MultiHopRound(subqueries=subqueries, judge=judge)
    return rounds


@dataclass
class EpisodeLog:
    rounds: list[RoundRecord]
    final_catalog: Catalog
    queries: list[np.ndarray] | None = None
    true_items: list[ItemId] | None = None
    online_losses: list[float] | None = None
    max_query_norm: float | None = None

    @property
    def successes(self) -> list[bool]:
        return [r.success for r in self.rounds]


def run_episode(
    env: Environment,
    episode: EpisodeConfig,
    catalog: Catalog | None = None,
    init_noise: float = 0.0,
    rng: RandomSource | None = None,
    record_losses: bool = True,
    reranker=None,
    deltas=None,
    multihop_rounds=None,
) -> EpisodeLog:
    """Run the configured variant for T * repeat_passes rounds.

    `catalog` defaults to `initial_catalog(env, init_noise)`. The rerank
    variant needs `reranker`; dynamic takes `deltas` (round -> CatalogDelta);
    multihop takes `multihop_rounds` (round -> MultiHopRound) and records the
    per-hop records flattened into the log.
    """
    from . import variants as _variants

    if catalog is None:
        catalog = initial_catalog(env, init_noise, projection=episode.projection)
    else:
        catalog.projection = episode.projection
    if rng is None:
        rng = RandomSource(np.random.SeedSequence([env.seed, 4]).generate_state(1)[0])

    oracle = lambda t, chosen: feedback_oracle(env, t, chosen)
    rounds: list[RoundRecord] = []
    queries: list[np.ndarray] = []
    labels: list[ItemId] = []
    losses: list[float] = []
    for t in range(1, env.total_rounds + 1):
        q = env.query_at(t)
        if episode.variant is Variant.DYNAMIC and deltas and t in deltas:
            _variants.apply_delta(catalog, deltas[t], t)
        if record_losses and episode.variant is not Variant.MULTIHOP:
            p_now = score(q, catalog)
            loss = (
                cross_entropy_loss(p_now, env.optimal_item(t))
                if env.optimal_item(t) in catalog
                else None
            )
        else:
            loss = None

        if episode.variant is Variant.PLAIN or episode.variant is Variant.DYNAMIC:
            rec = step(
                q, catalog, rng, episode.schedule, episode.update_mode, t, oracle,
                clip_propensity=episode.clip_propensity,
            )
            rec.loss = loss
            rounds.append(rec)
        elif episode.variant is Variant.RERANK:
            if reranker is None:
                raise InvalidConfig("rerank variant needs a reranker")
            rec = _variants.step_with_rerank(
                q, catalog, episode.K, reranker, rng, episode.schedule, t, oracle,
                update_mode=episode.update_mode,
                clip_propensity=episode.clip_propensity,
            )
            rec.loss = loss
            rounds.append(rec)
        else:
            if multihop_rounds is None or t not in multihop_rounds:
                raise InvalidConfig("multihop variant needs per-round sub-queries")
            hop_records = _variants.step_multihop(
                multihop_rounds[t], catalog, rng, episode.schedule, t,
                update_mode=episode.update_mode,
                clip_propensity=episode.clip_propensity,
            )
            rounds.extend(hop_records)

        if episode.variant is not Variant.MULTIHOP:
            queries.append(q.q)
            labels.append(env.optimal_item(t))
            losses.append(loss if loss is not None else float("nan"))

    return EpisodeLog(
        rounds=rounds,
        final_catalog=catalog,
        queries=queries or None,
        true_items=labels or None,
        online_losses=losses or None,
        max_query_norm=env.max_query_norm(),
    )
