import numpy as np
import pytest

from orag.catalog import Catalog
from orag.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyCatalog,
    IdRetired,
    InvalidConfig,
    KTooLarge,
    NonFiniteInput,
    UnknownId,
)
from orag.learner import (
    LearningRateSchedule,
    ScheduleKind,
    UpdateMode,
    step,
)
from orag.metrics import cross_entropy_loss
from orag.policy import QueryEmbedding, RandomSource, score
from orag.simulator import EpisodeConfig, make_environment, run_episode
from orag.variants import (
    CatalogDelta,
    MultiHopRound,
    apply_delta,
    make_stub_reranker,
    step_with_rerank,
)

CONST = lambda c: LearningRateSchedule(ScheduleKind.CONSTANT, c)


def _cat(seed=0, n=4, d=3):
    rng = np.random.default_rng(seed)
    return Catalog(d, [(f"i{k}", rng.normal(size=d)) for k in range(n)])


def test_rerank_k1_matches_plain_step():
    q = QueryEmbedding(np.array([1.0, -0.5, 0.2]), query_id="q")
    oracle = lambda t, chosen: chosen == "i1"
    reranker = make_stub_reranker(0.0, lambda qid: "i1", RandomSource(50))

    cat_a, cat_b = _cat(1), _cat(1)
    rec_a = step(q, cat_a, RandomSource(8), CONST(0.1), UpdateMode.FULL, 1, oracle)
    rec_b = step_with_rerank(
        q, cat_b, 1, reranker, RandomSource(8), CONST(0.1), 1, oracle
    )
    assert rec_a.chosen == rec_b.chosen
    assert rec_a.propensity == rec_b.propensity
    assert cat_a.matrix().tobytes() == cat_b.matrix().tobytes()


def test_oracle_reranker_with_full_candidate_set_always_succeeds():
    cat = _cat(2)
    q = QueryEmbedding(np.array([0.3, 0.3, -0.1]), query_id="q")
    reranker = make_stub_reranker(1.0, lambda qid: "i2", RandomSource(3))
    rec = step_with_rerank(
        q, cat, len(cat), reranker, RandomSource(4), CONST(0.1), 1,
        lambda t, chosen: chosen == "i2",
    )
    assert rec.chosen == "i2" and rec.success


def test_oracle_reranker_fixed_query_loss_shrinks():
    cat = _cat(3, n=6, d=4)
    q = QueryEmbedding(np.random.default_rng(4).normal(size=4), query_id="fix")
    rng, rr = RandomSource(11), RandomSource(12)
    reranker = make_stub_reranker(1.0, lambda qid: "i2", rr)
    losses, succ = [], []
    for t in range(1, 501):
        losses.append(cross_entropy_loss(score(q, cat), "i2"))
        rec = step_with_rerank(
            q, cat, len(cat), reranker, rng, CONST(0.05), t,
            lambda tt, ch: ch == "i2",
        )
        succ.append(rec.success)
    assert all(succ)
    assert np.mean(losses[-50:]) < np.mean(losses[:50])


def test_rerank_k_too_large():
    # The sampler's check is the only one: it draws no uniform and writes no row.
    cat, rng = _cat(0, n=3), RandomSource(3)
    before = cat.matrix().tobytes(), cat.generation
    reranker = make_stub_reranker(1.0, lambda qid: "i0", RandomSource(0))
    with pytest.raises(KTooLarge, match="K=4 with I=3 items"):
        step_with_rerank(
            QueryEmbedding(np.zeros(3)), cat, 4, reranker, rng,
            CONST(0.1), 1, lambda t, c: True,
        )
    assert (cat.matrix().tobytes(), cat.generation) == before
    assert rng.uniform() == RandomSource(3).uniform()
    with pytest.raises(EmptyCatalog):  # `score` comes first
        step_with_rerank(QueryEmbedding(np.zeros(3)), Catalog(3), 1, reranker, rng,
                         CONST(0.1), 1, lambda t, c: True)


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_rerank_round_zero_is_refused_and_changes_nothing(kind):
    # A rerank round is a `step`, so it takes step's rule: rounds start at t = 1.
    cat, rng = _cat(5), RandomSource(7)
    before = cat.matrix().tobytes(), cat.generation
    reranker = make_stub_reranker(1.0, lambda qid: "i0", RandomSource(1))
    with pytest.raises(ValueError, match="t starts at 1"):
        step_with_rerank(QueryEmbedding(np.ones(3), "q"), cat, 2, reranker, rng,
                         LearningRateSchedule(kind, 0.1), 0, lambda t, c: True)
    assert (cat.matrix().tobytes(), cat.generation) == before
    assert rng.uniform() == RandomSource(7).uniform()


def test_reranker_escaping_candidate_set_is_rejected():
    cat = _cat(0, n=4)
    rogue = lambda q, candidates: "i3"  # not necessarily sampled
    with pytest.raises(InvalidConfig):
        for attempt in range(50):
            step_with_rerank(
                QueryEmbedding(np.array([1.0, 0.0, 0.0])), cat, 1, rogue,
                RandomSource(attempt), CONST(0.1), 1, lambda t, c: True,
            )


def test_stub_reranker_alpha_validation():
    with pytest.raises(InvalidConfig):
        make_stub_reranker(1.5, lambda qid: "x", RandomSource(0))


def test_catalog_delta_overlap_rejected():
    with pytest.raises(InvalidConfig):
        CatalogDelta(added=[("a", np.zeros(2))], removed=["a"])


def test_apply_delta_wrong_round():
    cat = _cat(0)
    delta = CatalogDelta(added=[("new", np.zeros(3))], effective_at=5)
    with pytest.raises(InvalidConfig):
        apply_delta(cat, delta, t=4)


@pytest.mark.parametrize("removed, added, error", [
    (["i0", "ghost"], [], UnknownId),
    (["i0", "i0"], [], UnknownId),
    (["i0"], [("new", np.zeros(3)), ("gone", np.zeros(3))], IdRetired),
    (["i0"], [("new", np.zeros(3)), ("new", np.ones(3))], DuplicateId),
    (["i0"], [("new", np.zeros(3)), ("i1", np.ones(3))], DuplicateId),
    (["i0"], [("new", np.zeros(3)), ("wide", np.zeros(4))], DimensionMismatch),
    (["i0"], [("new", np.zeros(3)), ("nan", np.full(3, np.nan))], NonFiniteInput),
    # One operation: the delta raises what add_item/remove_item alone raises.
    (["ghost"], [], UnknownId),
    (["gone"], [], UnknownId),
    ([], [("gone", np.zeros(3))], IdRetired),
    ([], [("i1", np.ones(3))], DuplicateId),
    ([], [("nan", np.full(3, np.nan))], NonFiniteInput),
    ([], [("wide", np.zeros(4))], DimensionMismatch),
])
def test_failing_delta_changes_nothing(removed, added, error):
    cat = _cat(3, n=5)
    cat.add_item("gone", np.ones(3))
    cat.remove_item("gone")
    ids, rows, gen = cat.ids, cat.matrix(), cat.generation
    attempts = [lambda: apply_delta(cat, CatalogDelta(added=added, removed=removed, effective_at=2), t=2)]
    if len(removed) + len(added) == 1:
        attempts += [lambda: cat.remove_item(*removed)] if removed else [lambda: cat.add_item(*added[0])]
    for attempt in attempts:
        with pytest.raises(error):
            attempt()
        assert cat.ids == ids and cat.generation == gen
        assert cat.matrix().tobytes() == rows.tobytes()


def test_delta_bumps_generation_once_per_item():
    cat = _cat(3, n=5)
    delta = CatalogDelta(added=[("x", np.ones(3)), ("y", np.ones(3))], removed=["i0"],
                         effective_at=1)
    apply_delta(cat, delta, t=1)
    assert cat.generation == 3 and cat.ids == ("i1", "i2", "i3", "i4", "x", "y")


def test_a_churn_round_makes_no_catalog_sized_block():
    import tracemalloc

    # The churn workload's round at I = 10^4, d = 64: one retire and one
    # insert, then a K = 10 reranked step with a chosen-only update.
    rng = np.random.default_rng(8)
    n, d = 10_000, 64
    cat = Catalog.from_rows(d, [f"i{k:05d}" for k in rng.permutation(n)], rng.normal(size=(n, d)))
    q, row = QueryEmbedding(rng.normal(size=d), "q"), rng.normal(size=d)
    reranker = make_stub_reranker(0.9, lambda qid: cat.ids[0], RandomSource(1))
    sampler = RandomSource(2)

    def round_(t):
        apply_delta(cat, CatalogDelta([(f"fresh-{t}", row)], [cat.ids[t * 997 % len(cat)]], t), t)
        step_with_rerank(q, cat, 10, reranker, sampler, CONST(0.01), t,
                         lambda tt, ch: ch == cat.ids[0], UpdateMode.CHOSEN_ONLY)

    round_(1)  # warm-up
    tracemalloc.start()
    try:
        round_(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cat.matrix().nbytes / 4


def test_removing_dominant_item_renormalizes():
    cat = Catalog(1, [("big", [10.0]), ("s1", [0.0]), ("s2", [0.0])])
    q = np.array([1.0])
    apply_delta(cat, CatalogDelta(removed=["big"], effective_at=1), t=1)
    rec = step(q, cat, RandomSource(1), CONST(0.1), UpdateMode.FULL, 1, lambda t, c: False)
    p = score(q, cat)
    assert set(p.ids) == {"s1", "s2"}
    assert abs(p.probs.sum() - 1.0) < 1e-12
    assert rec.chosen in {"s1", "s2"}


def test_probability_support_tracks_delta_exactly():
    cat = _cat(7, n=5)
    delta = CatalogDelta(
        added=[("late", np.array([0.5, 0.5, 0.5]))], removed=["i0"], effective_at=3
    )
    apply_delta(cat, delta, t=3)
    p = score(np.array([1.0, 0.0, 0.0]), cat)
    assert set(p.ids) == {"i1", "i2", "i3", "i4", "late"}


def test_late_insertion_benefits_from_competitor_pushback():
    # competitors keep failing on a repeated query for nine rounds; when the
    # true item finally arrives, its probability beats the same insertion into
    # the untouched starting catalog
    cat = Catalog(2, [("comp1", [0.6, 0.8]), ("comp2", [0.8, 0.6])])
    untouched = cat.copy()
    q = QueryEmbedding(np.array([1.0, 0.0]), query_id="qprime")
    rng = RandomSource(7)
    for t in range(1, 10):
        step(q, cat, rng, CONST(0.5), UpdateMode.CHOSEN_ONLY, t, lambda tt, ch: False)
    init = np.array([0.9, 0.1])
    init = init / np.linalg.norm(init)
    cat.add_item("target", init)
    untouched.add_item("target", init)
    assert score(q, cat)["target"] > score(q, untouched)["target"]


def _multihop_episode(cat, rounds, schedule=CONST(0.1), seed=13):
    """Run `rounds` (round -> MultiHopRound) as a multihop episode from `cat`."""
    ep = EpisodeConfig(T=len(rounds), I=len(cat), d=cat.dim, schedule=schedule)
    return run_episode(make_environment(ep, 0), ep, catalog=cat, rng=RandomSource(seed),
                       multihop_rounds=rounds)


def test_multihop_single_hop_equals_plain_step():
    q = QueryEmbedding(np.array([0.2, -0.4, 0.6]), query_id="h")
    judge = lambda qq, chosen: int(chosen == "i1")
    cat_a, cat_b = _cat(9), _cat(9)
    rec_a = step(
        q, cat_a, RandomSource(13), CONST(0.1), UpdateMode.FULL, 1,
        lambda t, ch: ch == "i1",
    )
    log = _multihop_episode(cat_b, {1: MultiHopRound([q], ["i1"], judge)})
    (rec_b,) = log.rounds
    assert (rec_a.chosen, rec_a.success) == (rec_b.chosen, rec_b.success)
    assert cat_a.matrix().tobytes() == cat_b.matrix().tobytes()
    # The hop's loss is taken before its update; it logs its query and target.
    assert (rec_b.t, rec_b.hop, rec_b.query_id) == (1, 1, "h")
    assert rec_b.loss == cross_entropy_loss(score(q, _cat(9)), "i1")
    assert log.true_items == ["i1"] and log.queries[0].tobytes() == q.q.tobytes()


def test_multihop_always_failing_judge_pushes_rows_away():
    cat = _cat(10, n=3)
    qs = [
        QueryEmbedding(np.array([1.0, 0.0, 0.0]), query_id="h1"),
        QueryEmbedding(np.array([0.0, 1.0, 0.0]), query_id="h2"),
    ]
    round_ = MultiHopRound(qs, ["i0", "i0"], lambda q, chosen: 0)
    before = cat.copy()
    records = _multihop_episode(cat, {1: round_}, CONST(0.3), seed=2).rounds
    assert [r.success for r in records] == [False, False]
    first = records[0]
    assert float(cat.row(first.chosen) @ qs[0].q) < float(
        before.row(first.chosen) @ qs[0].q
    )


def test_multihop_later_hops_see_earlier_updates():
    cat = _cat(11, n=4)
    qs = [QueryEmbedding(np.random.default_rng(k).normal(size=3), query_id=f"h{k}") for k in range(3)]
    round_ = MultiHopRound(qs, ["i0", "i1", "i2"], lambda q, chosen: 0)
    records = _multihop_episode(cat, {1: round_, 2: round_}, seed=5).rounds
    gens = [r.generation for r in records]
    assert gens == sorted(gens) and len(set(gens)) == 6
    assert [(r.t, r.hop) for r in records] == [(t, h) for t in (1, 2) for h in (1, 2, 3)]
    # Each hop is one `step` at its round's t, its loss taken under the catalog
    # the previous hop left.
    ref, rng, expected = _cat(11, n=4), RandomSource(5), []
    for t in (1, 2):
        for q, target in zip(qs, round_.targets):
            loss = cross_entropy_loss(score(q, ref), target)
            rec = step(q, ref, rng, CONST(0.1), UpdateMode.FULL, t, lambda _t, c: False)
            expected.append((rec.chosen, rec.generation, loss))
    assert [(r.chosen, r.generation, r.loss) for r in records] == expected
    assert ref.matrix().tobytes() == cat.matrix().tobytes()


def test_multihop_hop_before_round_one_is_rejected():
    # A hop is one `step` at its round's t, and rounds start at 1.
    q = QueryEmbedding(np.ones(3), query_id="h")
    with pytest.raises(ValueError):
        step(q, _cat(12), RandomSource(1), CONST(0.1), UpdateMode.FULL, 0, lambda t, c: 0)


def test_multihop_round_requires_subqueries():
    with pytest.raises(InvalidConfig):
        MultiHopRound([], [], lambda q, c: 0)


def test_multihop_round_requires_one_target_per_subquery():
    with pytest.raises(InvalidConfig, match="one target per sub-query"):
        MultiHopRound([QueryEmbedding(np.ones(3), query_id="h")], [], lambda q, c: 0)
