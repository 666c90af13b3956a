"""The stream type `Environment`, synthetic streams and the episode runner.

A dump ingested by `io_utils` is an `Environment` too. A synthetic stream's
ground truth is a set of unit-norm latent directions, one per item. A query
for item i is its latent direction plus Gaussian noise, renormalized; the
feedback oracle is an exact match against the per-round optimal item. Streams
are deterministic in the environment seed, and support an optional
mid-stream remap of query clusters to new ground-truth items (distribution
shift) plus multi-pass replay of the query list.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import variants
from .catalog import Catalog, ItemId, ProjectionMode, row_chunks, row_norms
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


class Variant(enum.Enum):  # a `RunConfig` field; `cli.run_from_config` builds the episode
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


def _unit(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v / |v| for a row or per row of a block; rows of norm 0 stay as they are."""
    n = row_norms(v)
    return np.divide(v, np.where(n > 0, n, 1.0), out=out)


class RoundIds(Sequence):
    """"q1", "q2", ...: the query ids of a synthetic stream's rounds, each made when read."""

    def __init__(self, n: int):
        self._rounds = range(1, n + 1)

    def __len__(self) -> int:
        return len(self._rounds)

    def __getitem__(self, k):
        return f"q{self._rounds[k]}"


@dataclass
class Environment:
    """The one stream type: round t asks `queries[t - 1]`, id `query_ids[t - 1]`, won by
    `targets[t - 1]`. A synthetic stream holds unit `latents[k]` of the sorted `ids[k]` and
    the `noise_scale` and `seed` it was drawn with; a dump, its items' `catalog` (`ids`)."""

    query_ids: Sequence[str]
    queries: np.ndarray
    targets: list[ItemId]
    ids: tuple[ItemId, ...]
    latents: np.ndarray | None = None
    noise_scale: float = 0.0
    seed: int = 0
    catalog: Catalog | None = None

    @property
    def total_rounds(self) -> int:
        return len(self.targets)

    @property
    def dim(self) -> int:
        return self.queries.shape[1]

    def query_at(self, t: int) -> QueryEmbedding:
        return QueryEmbedding(self.queries[self._row(t)], query_id=self.query_ids[t - 1])

    def optimal_item(self, t: int) -> ItemId:
        return self.targets[self._row(t)]

    def _row(self, t: int) -> int:
        if not (1 <= t <= self.total_rounds):
            raise UndefinedRound(f"round {t} outside 1..{self.total_rounds}")
        return t - 1


def check_shift_round(config: EpisodeConfig, shift_round: int | None) -> None:
    """The one shift rule: a shift falls within the stream, 1 <= shift_round <= T * passes."""
    if shift_round is not None and not 1 <= shift_round <= config.T * config.repeat_passes:
        raise InvalidConfig(f"shift_round: must lie in [1, {config.T * config.repeat_passes}]")


def make_environment(
    config: EpisodeConfig,
    seed: int,
    noise_scale: float = 0.3,
    shift_round: int | None = None,
    shift_fraction: float = 0.5,
) -> Environment:
    """Draw unit-sphere latent directions from `SeedSequence([seed, 0])`, then
    the query stream from `[seed, 1]`.

    From `shift_round` on, a `shift_fraction` of the query clusters answer to
    new ground-truth items: queries keep their geometry, labels move. Each pass
    after the first replays the T base queries in a shuffled order."""
    if noise_scale < 0:
        raise InvalidConfig("noise_scale must be >= 0")
    check_shift_round(config, shift_round)
    seed, T, I, d = int(seed), config.T, config.I, config.d
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    names = [f"item{k:04d}" for k in range(I)]
    order = sorted(range(I), key=names.__getitem__)  # "item10000" < "item1001"
    dest = np.argsort(order)  # the row of item k in the sorted ids
    latents = np.empty((I, d))
    # Drawn chunk by chunk, the normals are those of one whole-block draw.
    for chunk in row_chunks(I, d):
        raw = rng.normal(size=(chunk.stop - chunk.start, d))
        latents[dest[chunk]] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    ids = tuple(map(names.__getitem__, order))

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    picks = rng.integers(0, I, size=T)
    raw = latents[picks] + rng.normal(0.0, noise_scale, size=(T, d))
    queries = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    remap = {}
    if shift_round is not None:
        shifted = list(rng.choice(ids, size=int(round(shift_fraction * I)), replace=False))
        remap = dict(zip(shifted, shifted[1:] + shifted[:1]))
    rounds = np.arange(T * config.repeat_passes) % T
    for p in range(1, config.repeat_passes):
        rng.shuffle(rounds[p * T : (p + 1) * T])
    clusters = [ids[k] for k in picks[rounds]]
    cut = len(clusters) if shift_round is None else shift_round - 1
    targets = clusters[:cut] + [remap.get(c, c) for c in clusters[cut:]]
    return Environment(RoundIds(len(targets)), queries[rounds], targets, ids, latents,
                       noise_scale, seed)


def initial_catalog(
    env: Environment,
    init_noise: float = 0.0,
    projection: ProjectionMode = ProjectionMode.NONE,
    restrict_to: Sequence[ItemId] | None = None,
) -> Catalog:
    """Rows = normalize(latent + init_noise * gaussian); seeded by env.seed.

    `restrict_to` keeps those ids' rows only, with the bits they have in the
    whole catalog. An ingested dump starts from a copy of its own items, projected
    as they were read; `init_noise` and `restrict_to` shape synthetic catalogs only."""
    if env.catalog is not None:
        return env.catalog.copy()
    ids, keep = env.ids, np.arange(len(env.ids))
    if restrict_to is not None:
        wanted = set(restrict_to)
        keep = keep[[i in wanted for i in ids]]
        ids = [ids[k] for k in keep.tolist()]
    # One block of the kept rows, filled in place: the bits of
    # _unit(latents + init_noise * normal). The normals are drawn 64 KB at a
    # time, the stream of one whole-block draw, and only the kept rows used.
    # With no noise the draw is skipped, as latent + 0.0 * normal == latent.
    rows = env.latents[keep]
    if init_noise != 0:
        rng = np.random.default_rng(np.random.SeedSequence([env.seed, 2]))
        lo = 0
        for chunk in row_chunks(len(env.ids), env.dim):
            noise = rng.normal(size=(chunk.stop - chunk.start, env.dim))
            hi = int(np.searchsorted(keep, chunk.stop))
            rows[lo:hi] += init_noise * noise[keep[lo:hi] - chunk.start]
            lo = hi
    for chunk in row_chunks(len(rows), env.dim):
        _unit(rows[chunk], out=rows[chunk])
    return Catalog.from_rows(env.dim, ids, rows, projection=projection, copy=False)


def init_embedder(env: Environment, noise: float = 0.3):
    """Stub initializer for late-added items: latent direction plus noise."""
    rng = np.random.default_rng(np.random.SeedSequence([env.seed, 3]))
    row = dict(zip(env.ids, range(len(env.ids))))

    def init(item_id: ItemId) -> np.ndarray:
        return _unit(env.latents[row[item_id]] + noise * rng.normal(size=env.dim))

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
    half = len(env.ids) // 2
    initial_ids, withheld = list(env.ids[:half]), env.ids[half:]
    if insert_round is None:
        insert_round = max(1, env.total_rounds // 2)
    embed = init_embedder(env, noise=new_item_noise)
    delta = variants.CatalogDelta(
        added=[(i, embed(i)) for i in withheld],
        removed=[],
        effective_at=insert_round,
    )
    return initial_ids, {insert_round: delta}


def make_multihop_rounds(env: Environment, hops: int = 2) -> dict:
    """Per-round multi-hop sub-queries, their targets and an exact-match judge.

    Hop h of round t reuses the environment's stream geometry: the sub-query
    is a noisy copy of a seeded per-(t, h) target item's latent direction, and
    the judge returns 1 exactly when the chosen item is that target. The
    stream's own targets play no part, so a distribution shift would not either.
    """
    rng = np.random.default_rng(np.random.SeedSequence([env.seed, 5]))
    total = env.total_rounds
    picks = rng.integers(0, len(env.ids), size=(total, hops))
    noise = rng.normal(0.0, env.noise_scale, size=(total, hops, env.dim))
    subs = _unit(env.latents[picks] + noise)
    rounds = {}
    for t in range(1, total + 1):
        subqueries = [QueryEmbedding(subs[t - 1, h], query_id=f"t{t}h{h + 1}") for h in range(hops)]
        targets = [env.ids[k] for k in picks[t - 1]]
        truth = {sq.query_id: target for sq, target in zip(subqueries, targets)}
        judge = (lambda tr: lambda q, chosen: int(chosen == tr[q.query_id]))(truth)
        rounds[t] = variants.MultiHopRound(subqueries, targets, judge)
    return rounds


@dataclass
class EpisodeLog:
    """One entry per logged record, a round's or a multi-hop hop's: its record, query,
    target item and online loss (NaN where none was recorded)."""

    rounds: list[RoundRecord]
    final_catalog: Catalog
    queries: list[np.ndarray]
    true_items: list[ItemId]
    online_losses: list[float]

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
    """Run `env.total_rounds` rounds of the episode its arguments make, one loop for all.

    `env` is the one stream type, `Environment`: a synthetic stream or an
    ingested dump. `catalog` defaults to `initial_catalog(env, init_noise)`;
    either way it must have the episode's projection. `rng` defaults to one drawn
    from a synthetic stream's seed; a dump has no seed, so a dump run needs one.
    The parts compose: `deltas[t]` (a CatalogDelta) applies at the start of round t,
    `multihop_rounds[t]` (a MultiHopRound) gives round t's hops, and a `reranker`
    makes every hop `variants.step_with_rerank` over `episode.K` candidates.

    A round is a list of hops: `(env.query_at(t), env.optimal_item(t))`, won
    when the chosen item is that target, or a multihop round's sub-queries and
    targets, judged by its judge. Each hop records its loss under the catalog it
    scores against (the previous hop's update included), steps at the round's t,
    and logs its record (`hop` set in a multihop round), its query and its target.
    """
    if catalog is None:
        catalog = initial_catalog(env, init_noise, projection=episode.projection)
    if catalog.projection is not episode.projection:
        raise InvalidConfig(f"catalog projection {catalog.projection} is not {episode.projection}")
    if multihop_rounds is not None and not (
            set(range(1, env.total_rounds + 1)) <= multihop_rounds.keys()):
        raise InvalidConfig("multihop_rounds: every round needs its sub-queries")
    if rng is None:
        if env.catalog is not None:
            raise InvalidConfig("rng: a dump run has no seed to derive one from; pass one")
        rng = RandomSource(np.random.SeedSequence([env.seed, 4]).generate_state(1)[0])

    rounds, queries, targets, losses = [], [], [], []
    for t in range(1, env.total_rounds + 1):
        if multihop_rounds is not None:
            mh = multihop_rounds[t]
            hops = [(q, target, lambda _t, chosen, q=q: int(mh.judge(q, chosen)),
                     q.query_id or f"t{t}h{h}", h)
                    for h, (q, target) in enumerate(zip(mh.subqueries, mh.targets), start=1)]
        else:
            q = env.query_at(t)
            target = env.optimal_item(t)
            hops = [(q, target, lambda _t, chosen, target=target: chosen == target,
                     q.query_id, None)]
        if deltas and t in deltas:  # after `query_at`, which starts a traced round
            variants.apply_delta(catalog, deltas[t], t)
        for q, target, judge, query_id, hop in hops:
            loss = None
            if record_losses and target in catalog:
                p = score(q, catalog)  # held through the step, whose `score` then reuses it
                loss = cross_entropy_loss(p, target)
            if reranker is not None:
                rec = variants.step_with_rerank(
                    q, catalog, episode.K, reranker, rng, episode.schedule, t, judge,
                    update_mode=episode.update_mode,
                    clip_propensity=episode.clip_propensity,
                )
            else:
                rec = step(q, catalog, rng, episode.schedule, episode.update_mode, t, judge,
                           clip_propensity=episode.clip_propensity)
            rec.query_id, rec.loss, rec.hop = query_id, loss, hop
            rounds.append(rec)
            queries.append(q.q)  # float64, as `score` reads it
            targets.append(target)
            losses.append(loss if loss is not None else float("nan"))
    return EpisodeLog(rounds, catalog, queries, targets, losses)
