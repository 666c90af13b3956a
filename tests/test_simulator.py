import dataclasses
import math

import numpy as np
import pytest

from orag.catalog import Catalog, ProjectionMode
from orag.errors import InvalidConfig, UndefinedRound
from orag.learner import LearningRateSchedule, ScheduleKind, UpdateMode
from orag.metrics import rolling_accuracy
from orag.policy import QueryEmbedding, RandomSource
from orag.variants import (
    CatalogDelta,
    MultiHopRound,
    apply_delta,
    make_stub_reranker,
    step_with_rerank,
)
from orag.simulator import (
    EpisodeConfig,
    half_withheld_scenario,
    init_embedder,
    initial_catalog,
    make_environment,
    make_multihop_rounds,
    run_episode,
)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        EpisodeConfig(T=0, I=5, d=2)
    with pytest.raises(InvalidConfig):
        EpisodeConfig(T=10, I=5, d=2, K=6)
    with pytest.raises(InvalidConfig):
        EpisodeConfig(T=10, I=5, d=2, repeat_passes=0)


def test_noiseless_queries_equal_latents():
    ep = EpisodeConfig(T=20, I=4, d=3)
    env = make_environment(ep, 0, noise_scale=0.0)
    for t in range(1, 21):
        target = env.optimal_item(t)
        latent = env.latents[env.ids.index(target)]
        np.testing.assert_allclose(env.query_at(t).q, latent, atol=1e-12)


def test_latents_are_unit_norm():
    env = make_environment(EpisodeConfig(T=5, I=10, d=6), 3)
    for v in env.latents:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_same_seed_identical_environments():
    ep = EpisodeConfig(T=50, I=6, d=4)
    a = make_environment(ep, 11)
    b = make_environment(ep, 11)
    for t in range(1, 51):
        np.testing.assert_array_equal(a.query_at(t).q, b.query_at(t).q)
        assert a.optimal_item(t) == b.optimal_item(t)


def test_query_ids_read_as_a_sequence_of_ids():
    env = make_environment(EpisodeConfig(T=5, I=3, d=2), 0)
    ids = env.query_ids
    assert len(ids) == 5 and list(ids) == ["q1", "q2", "q3", "q4", "q5"]
    assert ids[1:3] == ("q2", "q3") and ids[::-2] == ("q5", "q3", "q1") and ids[7:] == ()
    assert ids[-1] == "q5" and ids.index("q4") == 3 and "q6" not in ids
    with pytest.raises(IndexError):
        ids[5]


def test_round_bounds_checked():
    env = make_environment(EpisodeConfig(T=5, I=3, d=2), 0)
    with pytest.raises(UndefinedRound):
        env.query_at(0)
    with pytest.raises(UndefinedRound):
        env.optimal_item(6)


def _static_accuracy(env, catalog, rounds):
    Q = np.stack([env.query_at(t).q for t in range(1, rounds + 1)])
    pred = np.argmax(Q @ catalog.matrix().T, axis=1)
    ids = catalog.ids
    return float(
        np.mean([ids[k] == env.optimal_item(t + 1) for t, k in enumerate(pred)])
    )


def test_perfect_init_beats_corrupted_init():
    ep = EpisodeConfig(T=10_000, I=50, d=16)
    env = make_environment(ep, 0, noise_scale=0.3)
    perfect = initial_catalog(env, 0.0)
    corrupted = initial_catalog(env, 1.0)
    assert _static_accuracy(env, perfect, 10_000) > _static_accuracy(env, corrupted, 10_000)


def test_zero_init_noise_reproduces_latents():
    env = make_environment(EpisodeConfig(T=5, I=8, d=4), 2)
    cat = initial_catalog(env, 0.0)
    for i, latent in zip(env.ids, env.latents):
        np.testing.assert_allclose(cat.row(i), latent, atol=1e-12)


def test_huge_init_noise_degrades_to_chance():
    accs = []
    for seed in range(10):
        ep = EpisodeConfig(T=10_000, I=10, d=8)
        env = make_environment(ep, seed)
        cat = initial_catalog(env, 100.0)
        accs.append(_static_accuracy(env, cat, 10_000))
    assert abs(np.mean(accs) - 0.1) < 0.03


def test_initial_catalog_respects_projection():
    env = make_environment(EpisodeConfig(T=5, I=6, d=3), 1)
    cat = initial_catalog(env, 2.0, projection=ProjectionMode.UNIT_BALL)
    assert cat.max_row_norm() <= 1.0 + 1e-12


def test_feedback_oracle_matches_truth():
    # A round is won exactly when the chosen item is its target, which after a
    # shift is the post-shift one.
    ep = EpisodeConfig(T=200, I=4, d=3)
    env = make_environment(ep, 5, shift_round=100, shift_fraction=0.5)
    log = run_episode(env, ep)
    assert log.true_items == [env.optimal_item(t) for t in range(1, 201)]
    hits = [rec.chosen == target for rec, target in zip(log.rounds, log.true_items)]
    assert log.successes == hits and 0 < sum(hits) < 200


def test_shift_remaps_labels_mid_stream():
    ep = EpisodeConfig(T=200, I=10, d=4)
    plain = make_environment(ep, 9)
    shifted = make_environment(ep, 9, shift_round=100, shift_fraction=0.5)
    pre = [(shifted.optimal_item(t), plain.optimal_item(t)) for t in range(1, 100)]
    assert all(a == b for a, b in pre)
    post = [
        (shifted.optimal_item(t), plain.optimal_item(t)) for t in range(100, 201)
    ]
    assert any(a != b for a, b in post)


def test_repeat_passes_cycle_the_query_list():
    ep = EpisodeConfig(T=30, I=5, d=3, repeat_passes=3)
    env = make_environment(ep, 6)
    assert env.total_rounds == 90
    base = {tuple(env.query_at(t).q) for t in range(1, 31)}
    second = {tuple(env.query_at(t).q) for t in range(31, 61)}
    assert base == second


def test_run_episode_reproducible():
    ep = EpisodeConfig(T=120, I=8, d=4)
    env = make_environment(ep, 13)
    a = run_episode(env, ep, init_noise=0.8)
    b = run_episode(env, ep, init_noise=0.8)
    assert [(r.chosen, r.success, r.propensity) for r in a.rounds] == [
        (r.chosen, r.success, r.propensity) for r in b.rounds
    ]
    assert a.final_catalog.matrix().tobytes() == b.final_catalog.matrix().tobytes()
    assert all(np.linalg.norm(q) <= 1.0 + 1e-12 for q in a.queries)


def test_a_round_with_its_loss_reads_the_rows_once(monkeypatch):
    # The loss and the step score one query at one generation: the step's is a lookup.
    calls = []
    logits = Catalog.logits
    monkeypatch.setattr(Catalog, "logits", lambda cat, q: calls.append(1) or logits(cat, q))
    ep = EpisodeConfig(T=40, I=8, d=4)
    log = run_episode(make_environment(ep, 13), ep, init_noise=0.8)
    assert len(calls) == ep.T == len(log.rounds)
    assert not any(math.isnan(x) for x in log.online_losses)


def test_plain_episode_improves_rolling_accuracy():
    ep = EpisodeConfig(
        T=5000,
        I=20,
        d=8,
        schedule=LearningRateSchedule(ScheduleKind.INVERSE_SQRT, 1e-2),
    )
    env = make_environment(ep, 1)
    log = run_episode(env, ep, init_noise=0.8)
    roll = rolling_accuracy(log.successes, 500)
    assert roll[-1] > roll[0]


def test_good_init_drifts_less_than_bad_init():
    for seed in range(3):
        ep = EpisodeConfig(
            T=1000, I=10, d=6,
            schedule=LearningRateSchedule(ScheduleKind.CONSTANT, 0.05),
        )
        env = make_environment(ep, seed)
        drift = {}
        for noise in (0.0, 1.0):
            cat = initial_catalog(env, noise)
            theta1 = cat.matrix().copy()
            run_episode(env, ep, catalog=cat)
            drift[noise] = float(np.linalg.norm(cat.matrix() - theta1))
        assert drift[0.0] < drift[1.0]


@pytest.mark.parametrize("projection", list(ProjectionMode))
def test_run_episode_rejects_a_catalog_of_another_projection(projection):
    other = next(m for m in ProjectionMode if m is not projection)
    ep = EpisodeConfig(T=5, I=4, d=3, projection=projection)
    env = make_environment(ep, 0)
    cat = initial_catalog(env, 2.0, projection=other)
    before = cat.matrix()
    with pytest.raises(InvalidConfig):
        run_episode(env, ep, catalog=cat)
    assert cat.projection is other and cat.generation == 0
    assert cat.matrix().tobytes() == before.tobytes()


def test_half_withheld_scenario_shape():
    env = make_environment(EpisodeConfig(T=100, I=10, d=4), 2)
    initial_ids, deltas = half_withheld_scenario(env)
    assert len(initial_ids) == 5
    assert list(deltas) == [50]
    added_ids = {i for i, _ in deltas[50].added}
    assert added_ids == set(env.ids) - set(initial_ids)


def test_dynamic_episode_dips_then_recovers():
    # poorly initialized items double the catalog mid-stream: accuracy dips in
    # the window just after the insertion, then ends above the pre-dip level
    pre, dip, fin = [], [], []
    for seed in range(3):
        T, w = 10_000, 500
        ep = EpisodeConfig(
            T=T, I=50, d=16,
            schedule=LearningRateSchedule(ScheduleKind.CONSTANT, 0.05),
            update_mode=UpdateMode.CHOSEN_ONLY, clip_propensity=0.01,
        )
        env = make_environment(ep, seed, noise_scale=0.2)
        initial_ids, deltas = half_withheld_scenario(env, new_item_noise=1.0)
        cat = initial_catalog(env, 1.0, restrict_to=initial_ids)
        log = run_episode(env, ep, catalog=cat, deltas=deltas)
        s = np.asarray(log.successes, dtype=float)
        ins = T // 2
        pre.append(s[ins - w:ins].mean())
        dip.append(s[ins:ins + w].mean())
        fin.append(s[-w:].mean())
    assert np.mean(dip) < np.mean(pre)
    assert np.mean(fin) > np.mean(pre)


def test_init_embedder_is_deterministic_per_item():
    env = make_environment(EpisodeConfig(T=5, I=4, d=3), 8)
    embed_a = init_embedder(env, noise=0.3)
    embed_b = init_embedder(env, noise=0.3)
    for i in env.ids:
        np.testing.assert_array_equal(embed_a(i), embed_b(i))


def test_make_multihop_rounds_structure():
    env = make_environment(EpisodeConfig(T=20, I=6, d=4), 4)
    rounds = make_multihop_rounds(env, hops=2)
    assert set(rounds) == set(range(1, 21))
    r1 = rounds[1]
    assert len(r1.subqueries) == len(r1.targets) == 2
    # each hop's target is the one item its judge accepts
    for r in rounds.values():
        for sq, target in zip(r.subqueries, r.targets):
            assert [item for item in env.ids if r.judge(sq, item)] == [target]
    # the judge agrees with itself and rejects a wrong answer somewhere
    outcomes = {
        r.judge(sq, item)
        for r in rounds.values()
        for sq in r.subqueries
        for item in env.ids
    }
    assert outcomes == {0, 1}


def test_multihop_episode_logs_one_record_per_hop():
    ep = EpisodeConfig(T=15, I=6, d=4)
    env = make_environment(ep, 4)
    log = run_episode(
        env, ep, init_noise=0.5, multihop_rounds=make_multihop_rounds(env, hops=2)
    )
    assert len(log.rounds) == len(log.queries) == len(log.true_items) == 30
    assert [(r.t, r.hop) for r in log.rounds] == [(t, h) for t in range(1, 16) for h in (1, 2)]
    assert all(math.isfinite(loss) for loss in log.online_losses)
    assert [r.loss for r in log.rounds] == log.online_losses


def test_one_hop_multihop_episode_is_the_plain_episode():
    # One loop: a multihop round whose one hop is the stream's round is that round.
    ep = EpisodeConfig(T=30, I=6, d=4)
    env = make_environment(ep, 4)
    plain = run_episode(env, ep, init_noise=0.5)
    rounds = {t: MultiHopRound([env.query_at(t)], [env.optimal_item(t)],
                               lambda q, chosen, t=t: int(chosen == env.optimal_item(t)))
              for t in range(1, 31)}
    multi = run_episode(env, ep, init_noise=0.5, multihop_rounds=rounds)
    assert [r.hop for r in multi.rounds] == [1] * 30
    assert [dataclasses.replace(r, hop=None) for r in multi.rounds] == plain.rounds
    assert multi.online_losses == plain.online_losses
    assert multi.true_items == plain.true_items
    assert np.array_equal(multi.queries, plain.queries)
    assert multi.final_catalog.matrix().tobytes() == plain.final_catalog.matrix().tobytes()


def _churn_deltas(env, seed):
    """One delta a round that retires a live item other than the round's target and
    inserts a fresh one, as the churn benchmark does; also returns the live ids."""
    rng = np.random.default_rng(seed)
    live, deltas = list(env.ids), {}
    for t in range(1, env.total_rounds + 1):
        old = str(rng.choice([i for i in live if i != env.optimal_item(t)]))
        live[live.index(old)] = f"new{t}"
        deltas[t] = CatalogDelta(added=[(f"new{t}", rng.normal(size=env.dim))], removed=[old],
                                 effective_at=t)
    return deltas, live


def test_rerank_with_per_round_deltas_is_the_hand_driven_loop():
    # The churn benchmark's loop, a delta then a reranked step each round, as one episode.
    ep = EpisodeConfig(T=40, I=12, d=5, K=3, update_mode=UpdateMode.CHOSEN_ONLY)
    env = make_environment(ep, 6)
    deltas, live = _churn_deltas(env, 7)
    truth = dict(zip(env.query_ids, env.targets))
    log = run_episode(env, ep, init_noise=0.5, rng=RandomSource(9), deltas=deltas,
                      reranker=make_stub_reranker(0.8, truth.__getitem__, RandomSource(5)))
    cat, rng = initial_catalog(env, 0.5), RandomSource(9)
    reranker = make_stub_reranker(0.8, truth.__getitem__, RandomSource(5))
    by_hand = []
    for t in range(1, ep.T + 1):
        apply_delta(cat, deltas[t], t)
        by_hand.append(step_with_rerank(
            env.query_at(t), cat, ep.K, reranker, rng, ep.schedule, t,
            lambda tt, chosen: chosen == env.optimal_item(tt), update_mode=ep.update_mode))
    assert [dataclasses.replace(r, loss=None) for r in log.rounds] == by_hand
    assert list(log.final_catalog.ids) == list(cat.ids) == sorted(live)
    assert log.final_catalog.matrix().tobytes() == cat.matrix().tobytes()
    assert 0 < sum(log.successes) < ep.T


def test_deltas_without_a_reranker_are_applied():
    ep = EpisodeConfig(T=6, I=5, d=3)
    env = make_environment(ep, 2)
    delta = CatalogDelta(added=[("new", np.ones(3))], removed=["item0000"], effective_at=3)
    log = run_episode(env, ep, deltas={3: delta})
    assert list(log.final_catalog.ids) == ["item0001", "item0002", "item0003", "item0004", "new"]
    assert log.rounds[2].generation > log.rounds[1].generation + 1  # two bumps before round 3


def test_reranked_multihop_hops_are_logged_as_unreranked_ones_are():
    ep = EpisodeConfig(T=3, I=5, d=3, K=2)
    env = make_environment(ep, 1)
    rounds = {t: MultiHopRound([QueryEmbedding(env.queries[t - 1])], [env.targets[t - 1]],
                               lambda q, chosen: 1) for t in (1, 2, 3)}
    plain = run_episode(env, ep, multihop_rounds=rounds)
    reranked = run_episode(env, ep, multihop_rounds=rounds, reranker=lambda q, c: c[0])
    ids = [(r.t, r.hop, r.query_id) for r in plain.rounds]
    assert ids == [(r.t, r.hop, r.query_id) for r in reranked.rounds]
    assert ids == [(1, 1, "t1h1"), (2, 1, "t2h1"), (3, 1, "t3h1")]


def test_multihop_rounds_must_cover_every_round():
    ep = EpisodeConfig(T=8, I=5, d=3)
    env = make_environment(ep, 2)
    rounds = make_multihop_rounds(env)
    del rounds[5]
    with pytest.raises(InvalidConfig, match="multihop_rounds"):
        run_episode(env, ep, multihop_rounds=rounds)


@pytest.mark.parametrize("n_items", [37, 50, 1000, 10_050])
@pytest.mark.parametrize("noise", [0.0, 0.7])
@pytest.mark.parametrize("projection", list(ProjectionMode))
@pytest.mark.parametrize("restrict", [False, True])
def test_initial_catalog_matches_per_row_reference(n_items, noise, projection, restrict):
    # The block build against the per-row rows it replaced, added one at a
    # time: normalize(latent + noise * normal) with the norm of np.linalg.norm.
    env = make_environment(EpisodeConfig(T=5, I=n_items, d=16), 3)
    ids = env.ids
    keep = set(ids[::3]) if restrict else set(ids)
    rng = np.random.default_rng(np.random.SeedSequence([env.seed, 2]))
    ref = Catalog(env.dim, projection=projection)
    for i, latent in zip(ids, env.latents):
        row = latent + noise * rng.normal(size=env.dim)
        row = row / np.linalg.norm(row)
        if i in keep:
            ref.add_item(i, row)
    cat = initial_catalog(env, noise, projection=projection,
                          restrict_to=sorted(keep) if restrict else None)
    assert cat.ids == ref.ids
    assert cat.matrix().tobytes() == ref.matrix().tobytes()


@pytest.mark.parametrize("n_items, dim", [(3000, 8), (3000, 5), (7, 3), (10_050, 4)])
def test_make_environment_latents_match_whole_block_normalisation(n_items, dim):
    # Latents are normalised chunk by chunk; each row must keep the bits of
    # the whole-block np.linalg.norm and sit at its id's place in the sorted
    # ids (past 10^4 items, "item10000" sorts before "item1001").
    env = make_environment(EpisodeConfig(T=5, I=n_items, d=dim), 11)
    rng = np.random.default_rng(np.random.SeedSequence([11, 0]))
    raw = rng.normal(size=(n_items, dim))
    ref = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    names = [f"item{k:04d}" for k in range(n_items)]
    assert env.ids == tuple(sorted(names))
    row = {i: k for k, i in enumerate(env.ids)}
    got = env.latents[[row[i] for i in names]]
    assert got.tobytes() == ref.tobytes()


def test_make_environment_makes_one_catalog_sized_block():
    import tracemalloc

    ep = EpisodeConfig(T=5, I=10_000, d=64)
    block = ep.I * ep.d * 8
    tracemalloc.start()
    try:
        env = make_environment(ep, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert env.latents.nbytes == block
    # The latents are the one block; ids and 64 KB chunk temporaries come on top.
    assert peak <= 1.6 * block


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_setup_makes_one_catalog_sized_block(noise):
    import tracemalloc

    ep = EpisodeConfig(T=5, I=20000, d=32)
    block = ep.I * ep.d * 8
    tracemalloc.start()
    try:
        env = make_environment(ep, 2)
        after_env = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cat = initial_catalog(env, noise)
        peak = tracemalloc.get_traced_memory()[1] - after_env
    finally:
        tracemalloc.stop()
    assert len(cat) == ep.I
    # The catalog keeps the one block initial_catalog fills; ids, dicts and
    # 64 KB chunk temporaries come on top.
    assert peak < 2 * block


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_restricted_catalog_builds_only_the_kept_rows(noise):
    import tracemalloc

    env = make_environment(EpisodeConfig(T=5, I=10_000, d=64), 2)
    block = env.latents.nbytes
    kept = env.ids[::2]  # what the dynamic variant's half_withheld_scenario keeps, in size
    tracemalloc.start()
    try:
        cat = initial_catalog(env, noise, restrict_to=kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The kept rows are half the block; ids, dicts and 64 KB chunks come on top.
    assert peak < 0.9 * block
    # Each kept row has the bits it has in the whole catalog.
    full = initial_catalog(env, noise)
    pos = {i: k for k, i in enumerate(full.ids)}
    assert cat.ids == tuple(kept)
    assert cat.matrix().tobytes() == full.matrix()[[pos[i] for i in kept]].tobytes()


@pytest.mark.parametrize("shift_round", [-1, 0, 31, 500])
def test_make_environment_rejects_a_shift_outside_the_stream(shift_round):
    with pytest.raises(InvalidConfig, match="shift_round"):
        make_environment(EpisodeConfig(T=10, I=5, d=3), 0, shift_round=500)
    ep = EpisodeConfig(T=10, I=5, d=3, repeat_passes=3)
    with pytest.raises(InvalidConfig, match=r"shift_round: must lie in \[1, 30\]"):
        make_environment(ep, 0, shift_round=shift_round)
    assert make_environment(ep, 0, shift_round=30).total_rounds == 30  # the last round may shift


def test_make_environment_rejects_a_negative_noise_scale():
    with pytest.raises(InvalidConfig, match="noise_scale must be >= 0"):
        make_environment(EpisodeConfig(T=10, I=5, d=3), 0, noise_scale=-1)
