import numpy as np
import pytest

from orag.catalog import Catalog
from orag.errors import (
    DimensionMismatch,
    DuplicateId,
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
from orag.variants import (
    CatalogDelta,
    MultiHopRound,
    apply_delta,
    make_stub_reranker,
    step_multihop,
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
    cat = _cat(0, n=3)
    reranker = make_stub_reranker(1.0, lambda qid: "i0", RandomSource(0))
    with pytest.raises(KTooLarge):
        step_with_rerank(
            QueryEmbedding(np.zeros(3)), cat, 4, reranker, RandomSource(0),
            CONST(0.1), 1, lambda t, c: True,
        )


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
])
def test_failing_delta_changes_nothing(removed, added, error):
    cat = _cat(3, n=5)
    cat.add_item("gone", np.ones(3))
    cat.remove_item("gone")
    ids, rows, gen = cat.ids, cat.matrix(), cat.generation
    with pytest.raises(error):
        apply_delta(cat, CatalogDelta(added=added, removed=removed, effective_at=2), t=2)
    assert cat.ids == ids and cat.generation == gen
    assert cat.matrix().tobytes() == rows.tobytes()


def test_delta_bumps_generation_once_per_item():
    cat = _cat(3, n=5)
    delta = CatalogDelta(added=[("x", np.ones(3)), ("y", np.ones(3))], removed=["i0"],
                         effective_at=1)
    apply_delta(cat, delta, t=1)
    assert cat.generation == 3 and cat.ids == ("i1", "i2", "i3", "i4", "x", "y")


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


def test_multihop_single_hop_equals_plain_step():
    q = QueryEmbedding(np.array([0.2, -0.4, 0.6]), query_id="h")
    judge = lambda qq, chosen: int(chosen == "i1")
    cat_a, cat_b = _cat(9), _cat(9)
    rec_a = step(
        q, cat_a, RandomSource(13), CONST(0.1), UpdateMode.FULL, 1,
        lambda t, ch: ch == "i1",
    )
    (rec_b,) = step_multihop(
        MultiHopRound([q], judge), cat_b, RandomSource(13), CONST(0.1), 1
    )
    assert (rec_a.chosen, rec_a.success) == (rec_b.chosen, rec_b.success)
    assert cat_a.matrix().tobytes() == cat_b.matrix().tobytes()


def test_multihop_always_failing_judge_pushes_rows_away():
    cat = _cat(10, n=3)
    qs = [
        QueryEmbedding(np.array([1.0, 0.0, 0.0]), query_id="h1"),
        QueryEmbedding(np.array([0.0, 1.0, 0.0]), query_id="h2"),
    ]
    round_ = MultiHopRound(qs, lambda q, chosen: 0)
    before = cat.copy()
    records = step_multihop(round_, cat, RandomSource(2), CONST(0.3), 1)
    assert [r.success for r in records] == [False, False]
    first = records[0]
    assert float(cat.row(first.chosen) @ qs[0].q) < float(
        before.row(first.chosen) @ qs[0].q
    )


def test_multihop_later_hops_see_earlier_updates():
    cat = _cat(11, n=4)
    qs = [QueryEmbedding(np.random.default_rng(k).normal(size=3), query_id=f"h{k}") for k in range(3)]
    records = step_multihop(
        MultiHopRound(qs, lambda q, chosen: 0), cat, RandomSource(5), CONST(0.1), 7
    )
    gens = [r.generation for r in records]
    assert gens == sorted(gens) and len(set(gens)) == 3
    assert all(r.t == 7 for r in records)


def test_multihop_round_requires_subqueries():
    with pytest.raises(InvalidConfig):
        MultiHopRound([], lambda q, c: 0)
