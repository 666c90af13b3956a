import dataclasses
import math
import warnings

import numpy as np
import pytest

import orag.metrics as metrics_module
from orag.catalog import Catalog, ProjectionMode
from orag.errors import (
    EmptyEvents,
    InvalidProbability,
    MissingGroundTruth,
    NoRelevantItems,
    NonFiniteInput,
    UnknownId,
    WindowTooLarge,
)
from orag.metrics import (
    RankedList,
    cross_entropy_loss,
    ndcg_at_k,
    recall_at_k,
    regret_curve,
    rolling_accuracy,
    total_loss,
    train_oracle,
    truth_recall_ndcg,
)
from orag.policy import ProbabilityVector, score
from orag.simulator import EpisodeConfig, make_environment, run_episode


def _pv(ids, probs):
    return ProbabilityVector(tuple(ids), np.asarray(probs, dtype=float))


def test_cross_entropy_of_certainty_is_zero():
    assert cross_entropy_loss(_pv(("a",), [1.0]), "a") == 0.0


def test_cross_entropy_uniform_four():
    p = _pv(("a", "b", "c", "d"), [0.25] * 4)
    assert abs(cross_entropy_loss(p, "c") - math.log(4.0)) < 1e-12


def test_cross_entropy_point_one():
    p = _pv(("a", "b"), [0.1, 0.9])
    assert abs(cross_entropy_loss(p, "a") - 2.302585092994046) < 1e-12


def test_cross_entropy_of_a_zero_probability_target_is_infinite():
    # -ln 0, the value `regret_curve`'s oracle losses take, not a bare ValueError.
    assert cross_entropy_loss(_pv(("a", "b"), [1.0, 0.0]), "b") == math.inf


@pytest.mark.parametrize("bad", [-0.25, float("nan")])
def test_cross_entropy_of_a_negative_or_nan_entry_is_a_named_error(bad):
    # A hand-built vector can hold one; `score` never does.
    with pytest.raises(InvalidProbability, match="not a probability"):
        cross_entropy_loss(_pv(("a", "b"), [bad, 1.0]), "a")


@pytest.mark.parametrize("bad", [2.0, float("inf")])
def test_cross_entropy_of_an_entry_above_one_is_a_named_error(bad):
    # -ln of either would be a negative loss: -0.693 and -inf.
    with pytest.raises(InvalidProbability, match="not a probability"):
        cross_entropy_loss(_pv(("a",), [bad]), "a")


def test_cross_entropy_unknown_target():
    with pytest.raises(UnknownId):
        cross_entropy_loss(_pv(("a",), [1.0]), "zzz")


def test_train_oracle_single_separable_event():
    init = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.0, 0.0])])
    fit = train_oracle([(np.array([1.0, 0.0]), "a")], init, passes=500)
    assert fit.loss < 0.05
    # the original catalog is untouched
    np.testing.assert_array_equal(init.row("a"), [0.0, 0.0])


def test_train_oracle_is_deterministic_and_descends():
    rng = np.random.default_rng(0)
    init = Catalog(3, [(f"i{k}", rng.normal(size=3)) for k in range(4)])
    events = [(rng.normal(size=3), f"i{int(rng.integers(4))}") for _ in range(20)]
    queries = np.stack([q for q, _ in events])
    labels = np.array([init.ids.index(i) for _, i in events])
    init_loss = total_loss(init.matrix().astype(float), queries, labels)
    fit1 = train_oracle(events, init, passes=200)
    fit2 = train_oracle(events, init, passes=200)
    assert fit1.loss == fit2.loss
    assert fit1.catalog.matrix().tobytes() == fit2.catalog.matrix().tobytes()
    assert fit1.loss <= init_loss


def test_unit_ball_oracle_stays_in_the_ball_and_descends():
    rng = np.random.default_rng(3)
    n_items, d = 50, 16
    init = Catalog.from_rows(d, [f"i{k:02d}" for k in range(n_items)],
                             rng.normal(size=(n_items, d)), projection=ProjectionMode.UNIT_BALL)
    targets = rng.integers(n_items, size=400)
    events = [(3.0 * init.row(f"i{t:02d}") + rng.normal(size=d), f"i{t:02d}") for t in targets]
    queries = np.stack([q for q, _ in events])
    init_loss = total_loss(init.matrix(), queries, targets)
    fit = train_oracle(events, init, passes=200)
    assert fit.catalog.projection is ProjectionMode.UNIT_BALL
    assert fit.catalog.max_row_norm() <= 1.0 + 1e-12
    assert fit.loss <= init_loss
    # Without the projection the same descent leaves the ball.
    free = Catalog.from_rows(d, init.ids, init.matrix())
    assert train_oracle(events, free, passes=200).catalog.max_row_norm() > 1.5


def test_objective_is_convex_along_random_chords():
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(10, 3))
    labels = rng.integers(0, 4, size=10)
    for _ in range(20):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        mid = total_loss((a + b) / 2.0, queries, labels)
        avg = (total_loss(a, queries, labels) + total_loss(b, queries, labels)) / 2.0
        assert mid <= avg + 1e-12


def test_oracle_beats_random_search():
    rng = np.random.default_rng(2)
    init = Catalog(2, [("a", [0.0, 0.0]), ("b", [0.0, 0.0]), ("c", [0.0, 0.0])])
    events = [(rng.normal(size=2), ("a", "b", "c")[int(rng.integers(3))]) for _ in range(5)]
    fit = train_oracle(events, init, passes=2000)
    queries = np.stack([q for q, _ in events])
    labels = np.array([init.ids.index(i) for _, i in events])
    best_random = min(
        total_loss(rng.normal(size=(3, 2)), queries, labels) for _ in range(10_000)
    )
    assert fit.loss <= best_random


def test_train_oracle_rejects_empty_events():
    with pytest.raises(EmptyEvents):
        train_oracle([], Catalog(2, [("a", [0.0, 0.0])]))


def test_train_oracle_rejects_an_item_not_in_the_start_catalog():
    with pytest.raises(UnknownId, match="zz"):
        train_oracle([(np.ones(2), "a"), (np.ones(2), "zz")], Catalog(2, [("a", [1.0, 2.0])]))


def test_train_oracle_rejects_a_non_finite_query_before_its_first_pass(monkeypatch):
    rng = np.random.default_rng(16)
    init = Catalog(3, [(f"i{k}", rng.normal(size=3)) for k in range(4)])
    events = [(rng.normal(size=3), f"i{int(rng.integers(4))}") for _ in range(20)]
    events[13][0][1] = np.nan
    calls = []
    original = metrics_module.total_loss

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics_module, "total_loss", counted)
    with pytest.raises(NonFiniteInput, match="event 13: query"):
        train_oracle(events, init, passes=50)
    assert len(calls) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_regret_curve_rejects_a_non_finite_query(bad):
    rng = np.random.default_rng(18)
    oracle = Catalog(3, [(f"i{k}", rng.normal(size=3)) for k in range(4)])

    class Log:
        queries = list(rng.normal(size=(10, 3)))
        true_items = [f"i{k}" for k in rng.integers(4, size=10)]
        online_losses = [1.0] * 10

    Log.queries[6][2] = bad
    with pytest.raises(NonFiniteInput, match="event 6: query contains non-finite entries"):
        regret_curve(Log, oracle)


@pytest.mark.parametrize("d", [7, 9, 16])
def test_a_one_item_oracle_has_loss_exactly_zero(d):
    # One item has probability 1 under any scores, so every loss is exactly 0.
    rng = np.random.default_rng(d)
    init = Catalog.from_rows(d, ["only"], rng.normal(size=(1, d)))
    events = [(rng.normal(size=d), "only") for _ in range(255)]
    fit = train_oracle(events, init)
    assert fit.loss == 0.0

    class Log:
        queries = [q for q, _ in events]
        true_items = ["only"] * len(events)
        online_losses = [1.0] * len(events)

    assert regret_curve(Log, fit.catalog).oracle_loss.tolist() == [0.0] * len(events)


def test_regret_oracle_losses_are_finite_and_sum_to_total_loss():
    # b's probability for [1, 0] is exp(-800), which underflows to 0.0.
    oracle = Catalog(2, [("a", [400.0, 0.0]), ("b", [-400.0, 0.0])])

    class Underflowing:
        queries = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        true_items = ["b", "a"]
        online_losses = [900.0, 1.0]

    assert regret_curve(Underflowing, oracle).oracle_loss.tolist() == [800.0, math.log(2.0)]
    cases = [(oracle, Underflowing)]
    rng = np.random.default_rng(17)
    for _ in range(20):
        n_items, d, T = int(rng.integers(1, 30)), int(rng.integers(1, 10)), int(rng.integers(1, 300))
        theta = rng.normal(scale=float(rng.choice([1.0, 100.0])), size=(n_items, d))

        class Log:
            queries = list(rng.normal(size=(T, d)))
            true_items = [f"i{k}" for k in rng.integers(n_items, size=T)]
            online_losses = list(rng.exponential(size=T))

        cases.append((Catalog.from_rows(d, [f"i{k}" for k in range(n_items)], theta), Log))
    for cat, log in cases:
        ledger = regret_curve(log, cat)
        assert np.isfinite(ledger.oracle_loss).all() and math.isfinite(ledger.final_regret)
        labels = np.array([cat.ids.index(i) for i in log.true_items])
        expected = total_loss(cat.matrix(), np.stack(log.queries), labels)
        np.testing.assert_allclose(np.sum(ledger.oracle_loss), expected, rtol=1e-12)


def test_regret_zero_when_online_equals_oracle():
    rng = np.random.default_rng(3)
    oracle = Catalog(2, [("a", rng.normal(size=2)), ("b", rng.normal(size=2))])

    class FrozenLog:
        queries = [rng.normal(size=2) for _ in range(5)]
        true_items = ["a", "b", "a", "a", "b"]
        online_losses = None

    FrozenLog.online_losses = [
        cross_entropy_loss(score(q, oracle), i)
        for q, i in zip(FrozenLog.queries, FrozenLog.true_items)
    ]
    ledger = regret_curve(FrozenLog, oracle)
    assert abs(ledger.final_regret) < 1e-12


def test_single_round_equal_losses_zero_regret():
    oracle = Catalog(1, [("a", [0.5])])

    class OneRound:
        queries = [np.array([1.0])]
        true_items = ["a"]
        online_losses = [cross_entropy_loss(score(np.array([1.0]), oracle), "a")]

    ledger = regret_curve(OneRound, oracle)
    assert len(ledger) == 1
    assert abs(ledger.final_regret) < 1e-12


def test_regret_is_additive():
    ep = EpisodeConfig(T=50, I=5, d=3)
    env = make_environment(ep, 4)
    log = run_episode(env, ep, init_noise=0.8)
    oracle = Catalog(3, zip(env.ids, env.latents))
    ledger = regret_curve(log, oracle)
    per_round = ledger.online_loss - ledger.oracle_loss
    assert abs(ledger.final_regret - per_round.sum()) < 1e-12
    np.testing.assert_allclose(ledger.cumulative_regret, np.cumsum(per_round), atol=1e-12)


def test_regret_skips_rounds_without_an_online_loss():
    # A dynamic-variant round whose target is still withheld records NaN.
    oracle = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])

    class PartlyWithheld:
        queries = [np.array([1.0, 0.5]), np.array([0.2, 1.0]), np.array([1.0, 1.0])]
        true_items = ["a", "b", "a"]
        online_losses = [0.9, float("nan"), 0.4]

    ledger = regret_curve(PartlyWithheld, oracle)
    o = ledger.oracle_loss
    assert np.isnan(ledger.online_loss[1]) and np.isfinite(o).all()
    expected = np.cumsum([0.9 - o[0], 0.0, 0.4 - o[2]])
    assert ledger.cumulative_regret.tobytes() == expected.tobytes()
    assert math.isfinite(ledger.final_regret)


def test_regret_requires_ground_truth():
    class Bare:
        queries = None
        true_items = None
        online_losses = None

    with pytest.raises(MissingGroundTruth):
        regret_curve(Bare, Catalog(1, [("a", [0.0])]))


def test_regret_requires_online_losses():
    ep = EpisodeConfig(T=20, I=5, d=3)
    env = make_environment(ep, 4)
    log = run_episode(env, ep, init_noise=0.8)
    log = dataclasses.replace(log, online_losses=[math.nan] * len(log.online_losses))
    with pytest.raises(MissingGroundTruth, match="online losses"):
        regret_curve(log, Catalog(3, zip(env.ids, env.latents)))


def _ranked(order, relevant):
    return RankedList(tuple(order), frozenset(relevant))


def test_recall_examples():
    order = [f"i{k}" for k in range(12)]
    assert recall_at_k(_ranked(order, {"i2"}), 10) == 1.0
    assert recall_at_k(_ranked(order, {"i10"}), 10) == 0.0  # rank 11
    assert recall_at_k(_ranked(order, {"i0", "i11"}), 10) == 0.5


def test_recall_monotone_in_k():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        order = list(rng.permutation([f"i{k}" for k in range(n)]))
        relevant = set(rng.choice(order, size=int(rng.integers(1, n + 1)), replace=False))
        vals = [recall_at_k(_ranked(order, relevant), k) for k in range(1, n + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ndcg_examples():
    order = ["a", "b", "c", "d"]
    assert ndcg_at_k(_ranked(order, {"a"}), 4) == 1.0
    assert abs(ndcg_at_k(_ranked(order, {"b"}), 4) - 1.0 / math.log2(3.0)) < 1e-12
    assert ndcg_at_k(_ranked(order, {"d"}), 2) == 0.0


def test_ndcg_stays_in_unit_interval():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        order = [f"i{k}" for k in range(n)]
        relevant = set(rng.choice(order, size=int(rng.integers(1, n + 1)), replace=False))
        v = ndcg_at_k(_ranked(order, relevant), int(rng.integers(1, n + 1)))
        assert 0.0 <= v <= 1.0


def test_metrics_require_relevant_items():
    with pytest.raises(NoRelevantItems):
        recall_at_k(_ranked(["a"], set()), 1)
    with pytest.raises(NoRelevantItems):
        ndcg_at_k(_ranked(["a"], set()), 1)


def test_metrics_require_k_of_at_least_one():
    with pytest.raises(ValueError, match="k must be >= 1"):
        recall_at_k(_ranked(["a"], {"a"}), 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        ndcg_at_k(_ranked(["a"], {"a"}), 0)


def test_ranked_list_ties_break_by_id():
    p = _pv(("b", "a", "c"), [0.4, 0.4, 0.2])
    ranked = RankedList.from_probabilities(p, {"a"})
    assert ranked.order == ("a", "b", "c")


def _sorted_order(p):
    """The order by a Python sort: descending probability, then id."""
    return tuple(p.ids[k] for k in sorted(range(len(p.ids)), key=lambda k: (-p.probs[k], p.ids[k])))


def test_ranked_list_order_is_that_of_a_python_sort_on_ties():
    rng = np.random.default_rng(9)
    # A scored p (sorted ids), with whole groups of tied rows.
    rows = rng.normal(size=(6, 3))[rng.integers(0, 6, size=200)]
    cat = Catalog.from_rows(3, [f"i{k:03d}" for k in range(200)], rows)
    p = score(rng.normal(size=3), cat)
    assert len(set(p.probs.tolist())) <= 6
    assert RankedList.from_probabilities(p, {"i000"}).order == _sorted_order(p)
    # Hand-built ps with unsorted ids and few distinct probabilities.
    for n in (1, 2, 17, 300):
        ids = [f"x{k}" for k in rng.permutation(n)]
        hand = _pv(ids, rng.choice([0.0, 0.1, 0.25], size=n))
        assert RankedList.from_probabilities(hand, {ids[0]}).order == _sorted_order(hand)


def test_truth_recall_ndcg_matches_the_ranked_list():
    # Three distinct probabilities over up to 40 items: the truth's tie group
    # often straddles the cutoff. Ids are in no particular order.
    rng = np.random.default_rng(12)
    straddles = 0
    for _ in range(300):
        n = int(rng.integers(1, 40))
        ids = [f"i{k:02d}" for k in rng.permutation(n)]
        p = _pv(ids, rng.choice([0.05, 0.1, 0.2], size=n))
        truth, k = ids[int(rng.integers(n))], int(rng.integers(1, n + 2))
        ranked = RankedList.from_probabilities(p, {truth})
        assert truth_recall_ndcg(p, truth, k) == (recall_at_k(ranked, k), ndcg_at_k(ranked, k))
        tied = {i for i in ids if p[i] == p[truth]}
        straddles += bool(tied & set(ranked.order[:k])) and bool(tied - set(ranked.order[:k]))
    assert straddles > 50
    with pytest.raises(ValueError):
        truth_recall_ndcg(p, truth, 0)
    with pytest.raises(UnknownId, match="zz"):
        truth_recall_ndcg(p, "zz", 3)


def test_rolling_accuracy_examples():
    np.testing.assert_array_equal(rolling_accuracy([True] * 5, 3), np.ones(3))
    alt = [True, False] * 4
    np.testing.assert_allclose(rolling_accuracy(alt, 2), 0.5)
    whole = rolling_accuracy([True, False, False, True], 4)
    assert whole.shape == (1,)
    assert whole[0] == 0.5


def test_rolling_accuracy_window_bounds():
    with pytest.raises(WindowTooLarge):
        rolling_accuracy([True, False], 3)
    with pytest.raises(ValueError):
        rolling_accuracy([True], 0)


def _event_major_softmax(logits):
    """The (T, I) softmax, one row per event, that `total_loss` took before."""
    z = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def _reference_train_oracle(events, init, passes, lr, tol):
    """`train_oracle` spelled out, which it must match bit for bit: every block, the
    start's from the (T, d) queries and each candidate's from their (d, T) copy,
    scored as exp(z), and redone as exp(z - max z) when one of its column sums s
    leaves [1e-300, 1e300]; the loss sum log s - sum (z[y] - c), floored at 0; the
    gradient E @ (Q / s) - S, with S summed one event at a time.

    Returns (theta, loss, passes, backtracks, redos)."""
    queries = np.stack([q for q, _ in events])
    labels = np.array([init.ids.index(i) for _, i in events])
    n_items, T = len(init), len(labels)
    qt = np.ascontiguousarray(queries.T)
    label_sums = np.zeros((n_items, init.dim))
    for q, y in zip(queries, labels):
        label_sums[y] += q
    redos = 0

    def loss_of(z):
        nonlocal redos
        with np.errstate(over="ignore", under="ignore"):  # c = 0: the sums below catch it
            e = np.exp(z)
            s = e.sum(axis=0)
        if not np.all((s >= 1e-300) & (s <= 1e300)):
            redos += 1
            z = z - z.max(axis=0)
            e = np.exp(z)
            s = e.sum(axis=0)
        loss = float(np.sum(np.log(s)) - np.sum(z[labels, np.arange(T)]))
        return (0.0 if loss < 0 else loss), e, s

    theta = init.matrix()
    loss, e, s = loss_of(theta @ queries.T)
    step = lr
    used = backtracks = 0
    for it in range(passes):
        grad = e @ (qt / s).T - label_sums
        while True:
            cand = theta - step * grad
            cand_loss, cand_e, cand_s = loss_of(cand @ qt)
            if cand_loss <= loss or step < 1e-16:
                break
            step *= 0.5
            backtracks += 1
        used = it + 1
        if cand_loss > loss:
            break
        improved = loss - cand_loss
        theta, loss, e, s = cand, cand_loss, cand_e, cand_s
        step *= 1.05
        if improved < tol:
            break
    return theta, loss, used, backtracks, redos


def test_train_oracle_matches_the_unshifted_reference_bytewise():
    rng = np.random.default_rng(8)
    early_stops = backtracks = redos = 0
    for case in range(36):
        n_items, d = int(rng.integers(1, 31)), int(rng.integers(1, 11))
        T = 1 if case % 6 == 0 else int(rng.integers(1, 201))
        lr, tol = (0.05, 5.0, 500.0)[case % 3], (1e-9, 1e-3)[case % 2]
        scale = (1.0, 10.0, 100.0)[case // 3 % 3]  # large logits: probabilities underflow
        init = Catalog.from_rows(d, [f"i{k}" for k in range(n_items)],
                                 rng.normal(size=(n_items, d)))
        events = [(rng.normal(scale=scale, size=d), f"i{int(rng.integers(n_items))}")
                  for _ in range(T)]
        theta, loss, used, halved, redone = _reference_train_oracle(events, init, 40, lr, tol)
        fit = train_oracle(events, init, passes=40, lr=lr, tol=tol)
        assert (fit.passes, fit.loss) == (used, loss)
        assert fit.catalog.matrix().tobytes() == theta.tobytes()
        assert math.isfinite(fit.loss)
        early_stops += used < 40
        backtracks += halved
        redos += redone
    assert early_stops and backtracks and redos


def test_a_block_out_of_range_is_redone_and_the_loss_stays_finite(monkeypatch):
    # At lr 1000 a candidate's logits pass 745 in size, so exp(z) overflows or
    # underflows whole columns and the block is redone with its exact column max.
    rng = np.random.default_rng(15)
    init = Catalog.from_rows(3, [f"i{k}" for k in range(4)], rng.normal(size=(4, 3)))
    events = [(rng.normal(scale=10.0, size=3), f"i{int(rng.integers(4))}") for _ in range(30)]
    queries = np.stack([q for q, _ in events])
    labels = np.array([init.ids.index(i) for _, i in events])
    losses, blocks = [], []
    original_loss, original_exp = metrics_module.total_loss, metrics_module._exp_in_place

    def recorded(*args, **kwargs):
        losses.append(original_loss(*args, **kwargs))
        return losses[-1]

    def counted(*args):
        blocks.append(args[0].shape)
        return original_exp(*args)

    monkeypatch.setattr(metrics_module, "total_loss", recorded)
    monkeypatch.setattr(metrics_module, "_exp_in_place", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = train_oracle(events, init, passes=5, lr=1000.0)
    monkeypatch.undo()
    theta, loss, used, _, redos = _reference_train_oracle(events, init, 5, 1000.0, 1e-9)
    assert redos >= 1 and len(blocks) - len(losses) == redos  # one extra block per redo
    assert all(math.isfinite(x) for x in losses)
    assert fit.loss < total_loss(init.matrix(), queries, labels)
    assert (fit.passes, fit.loss) == (used, loss)
    assert fit.catalog.matrix().tobytes() == theta.tobytes()


def test_total_loss_matches_the_event_major_formula():
    # The item-major block comes from another matmul layout and sums each column
    # in another order, and the loss is taken as sum log s - sum (z[y] - c), so its
    # bits move. `out` holds exp(z - c): normalised, it is the softmax.
    rng = np.random.default_rng(12)
    for _ in range(60):
        n_items, d, T = int(rng.integers(1, 60)), int(rng.integers(1, 20)), int(rng.integers(1, 400))
        theta = rng.normal(size=(n_items, d))
        queries = rng.normal(scale=2.0 / math.sqrt(d), size=(T, d))
        labels = rng.integers(n_items, size=T)
        out = np.empty((n_items, T))
        loss = total_loss(theta, queries, labels, out=out)
        old_p = _event_major_softmax(queries @ theta.T)
        np.testing.assert_allclose((out / out.sum(axis=0)).T, old_p, rtol=1e-12)
        old_loss = float(-np.sum(np.log(old_p[np.arange(T), labels])))
        np.testing.assert_allclose(loss, old_loss, rtol=1e-12)


def test_total_loss_as_the_benchmark_calls_it_is_the_trainers_first_loss(monkeypatch):
    # The benchmark's check_job passes the start catalog's matrix and (T, d)
    # queries with no `out`, and compares the fit against the float it returns.
    rng = np.random.default_rng(13)
    n_items, d, T = 50, 16, 300
    init = Catalog.from_rows(d, [f"i{k:02d}" for k in range(n_items)],
                             rng.normal(scale=0.5, size=(n_items, d)))
    events = [(rng.normal(size=d), f"i{int(rng.integers(n_items)):02d}") for _ in range(T)]
    losses = []
    original = metrics_module.total_loss

    def recorded(*args, **kwargs):
        losses.append(original(*args, **kwargs))
        return losses[-1]

    monkeypatch.setattr(metrics_module, "total_loss", recorded)
    train_oracle(events, init, passes=3)
    monkeypatch.undo()
    index = {i: k for k, i in enumerate(init.ids)}
    queries = np.stack([q for q, _ in events])
    labels = np.array([index[i] for _, i in events])
    direct = total_loss(init.matrix(), queries, labels)
    assert type(direct) is float
    assert direct == losses[0]


def test_train_oracle_reports_whether_it_converged():
    rng = np.random.default_rng(14)
    init = Catalog(3, [(f"i{k}", rng.normal(size=3)) for k in range(4)])
    events = [(rng.normal(size=3), f"i{int(rng.integers(4))}") for _ in range(30)]
    budget = train_oracle(events, init, passes=2)
    assert (budget.passes, budget.converged) == (2, False)
    stopped = train_oracle(events, init, passes=10_000, tol=1e-6)
    assert stopped.passes < 10_000 and stopped.converged
    # A gradient of exactly 0: the first candidate equals the start and improves by 0.
    flat = train_oracle([(np.array([1.0]), "a"), (np.array([1.0]), "b")],
                        Catalog(1, [("a", [0.0]), ("b", [0.0])]), passes=50)
    assert (flat.passes, flat.converged) == (1, True)


def test_train_oracle_peak_memory_is_two_probability_blocks():
    import tracemalloc

    rng = np.random.default_rng(10)
    n_items, d, T = 50, 16, 2000
    init = Catalog.from_rows(d, [f"i{k:02d}" for k in range(n_items)],
                             rng.normal(scale=0.1, size=(n_items, d)))
    events = [(rng.normal(size=d), f"i{int(rng.integers(n_items)):02d}") for _ in range(T)]
    train_oracle(events, init, passes=2)  # warm-up
    tracemalloc.start()
    try:
        train_oracle(events, init, passes=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * T * n_items * 8
