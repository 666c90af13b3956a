"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import time
from pathlib import Path
from functools import lru_cache

import numpy as np

from orag.catalog import Catalog, ProjectionMode, read_snapshot, write_snapshot
from orag.learner import (
    Feedback,
    LearningRateSchedule,
    ScheduleKind,
    UpdateMode,
    estimate_gradient_chosen_only,
    estimate_gradient_full,
    step,
)
from orag.metrics import (
    RankedList,
    cross_entropy_loss,
    ndcg_at_k,
    recall_at_k,
    regret_curve,
    rolling_accuracy,
    train_oracle,
)
from orag.io_utils import read_event_log, write_event_log
from orag.policy import RandomSource, score
from orag.simulator import (
    EpisodeConfig,
    half_withheld_scenario,
    initial_catalog,
    make_environment,
    make_multihop_rounds,
    run_episode,
)
from orag.variants import apply_delta, make_stub_reranker

SEEDS = range(10)


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _random_instance(rng, max_i=6, max_d=4):
    n = int(rng.integers(2, max_i + 1))
    d = int(rng.integers(1, max_d + 1))
    cat = Catalog(d, [(f"i{k}", rng.normal(size=d)) for k in range(n)])
    q = rng.normal(size=d)
    i_star = f"i{int(rng.integers(n))}"
    return cat, q, i_star


def test_criterion_01_unbiasedness_oracle():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        cat, q, i_star = _random_instance(rng)
        p = score(q, cat)
        for estimator in (estimate_gradient_full, estimate_gradient_chosen_only):
            accum = {i: np.zeros(cat.dim) for i in p.ids}
            for chosen in p.ids:
                fb = Feedback(chosen, chosen == i_star, p[chosen])
                g = estimator(p, q, fb)
                for i in p.ids:
                    if i in g.ids:
                        accum[i] += p[chosen] * (g.coeff[g.ids.index(i)] * g.q)
            for i in p.ids:
                expected = (p[i] - (1.0 if i == i_star else 0.0)) * q
                worst = max(worst, float(np.max(np.abs(accum[i] - expected))))
    elapsed = time.time() - t0
    _report(1, worst < 1e-10 and elapsed < 5.0,
            f"max entry error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_finite_difference_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        cat, q, i_star = _random_instance(rng)
        p = score(q, cat)
        analytic = np.stack(
            [(p[i] - (1.0 if i == i_star else 0.0)) * q for i in p.ids]
        )
        theta = cat.matrix().astype(np.float64)
        numeric = np.zeros_like(theta)
        for r in range(theta.shape[0]):
            for c in range(theta.shape[1]):
                for sign, bucket in ((1.0, 1), (-1.0, -1)):
                    pert = theta.copy()
                    pert[r, c] += sign * h
                    loss = cross_entropy_loss(
                        score(q, Catalog(cat.dim, zip(cat.ids, pert))), i_star
                    )
                    numeric[r, c] += bucket * loss
        numeric /= 2.0 * h
        worst = max(worst, float(np.max(np.abs(numeric - analytic))))
    elapsed = time.time() - t0
    _report(2, worst < 1e-5 and elapsed < 10.0,
            f"max entry error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_sublinear_regret():
    t0 = time.time()
    horizons = [250, 500, 1000, 2000, 4000]
    sched = LearningRateSchedule(ScheduleKind.INVERSE_SQRT, 1.0)
    mean_regret = []
    for T in horizons:
        finals = []
        for seed in SEEDS:
            ep = EpisodeConfig(T=T, I=20, d=8, schedule=sched)
            env = make_environment(ep, seed, noise_scale=0.3)
            log = run_episode(env, ep, init_noise=0.8)
            init = initial_catalog(env, 0.8)
            fit = train_oracle(
                list(zip(log.queries, log.true_items)), init, passes=3000
            )
            finals.append(regret_curve(log, fit.catalog).final_regret)
        mean_regret.append(float(np.mean(finals)))
    slope = float(np.polyfit(np.log(horizons), np.log(mean_regret), 1)[0])
    ratio = (mean_regret[-1] / horizons[-1]) / (mean_regret[0] / horizons[0])
    elapsed = time.time() - t0
    _report(3, slope < 0.85 and ratio < 0.5 and elapsed < 120.0,
            f"log-log slope {slope:.3f}, R_T/T ratio {ratio:.3f}, {elapsed:.0f}s")


_RECOVERY = dict(T=10_000, I=50, d=16, noise=0.3, c=0.05, clip=0.01)


@lru_cache(maxsize=None)
def _recovery_run(seed, sigma_init):
    """One plain episode on the misalignment benchmark, instrumented with
    per-round argmax hits and the total embedding drift."""
    cfg = _RECOVERY
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, cfg["c"])
    ep = EpisodeConfig(
        T=cfg["T"], I=cfg["I"], d=cfg["d"], schedule=sched,
        update_mode=UpdateMode.CHOSEN_ONLY, clip_propensity=cfg["clip"],
    )
    env = make_environment(ep, seed, noise_scale=cfg["noise"])
    cat = initial_catalog(env, sigma_init)
    theta1 = cat.matrix().copy()
    rng = RandomSource(np.random.SeedSequence([seed, 4]).generate_state(1)[0])
    hits, successes = [], []
    for t in range(1, ep.T + 1):
        q = env.query_at(t)
        p = score(q, cat)
        hits.append(p.ids[int(np.argmax(p.probs))] == env.optimal_item(t))
        rec = step(
            q, cat, rng, sched, UpdateMode.CHOSEN_ONLY, t,
            lambda tt, ch: ch == env.optimal_item(tt),
            clip_propensity=cfg["clip"],
        )
        successes.append(rec.success)
    drift = float(np.linalg.norm(cat.matrix() - theta1))
    return np.array(hits, dtype=float), np.array(successes, dtype=float), drift


def test_criterion_04_misalignment_recovery():
    t0 = time.time()
    dec = _RECOVERY["T"] // 10
    gains = []
    for seed in SEEDS:
        hits, _, _ = _recovery_run(seed, 1.0)
        gains.append(hits[-dec:].mean() - hits[:dec].mean())
    mean_gain = float(np.mean(gains))
    elapsed = time.time() - t0
    _report(4, mean_gain >= 0.10 and elapsed < 120.0,
            f"mean top-1 accuracy gain {mean_gain:.3f}, {elapsed:.0f}s")


def test_criterion_05_good_init_stability():
    drifts = []
    for seed in SEEDS:
        _, _, drift_good = _recovery_run(seed, 0.0)
        _, _, drift_bad = _recovery_run(seed, 1.0)
        drifts.append((drift_good, drift_bad))
    ok = all(g < b for g, b in drifts)
    worst = max(g / b for g, b in drifts)
    _report(5, ok, f"drift ratio good/bad max {worst:.3f} over {len(drifts)} seeds")


def _rounds_to_target(successes, frac=0.9, window=500):
    s = np.asarray(successes, dtype=float)
    dec = len(s) // 10
    target = frac * s[-dec:].mean()
    roll = rolling_accuracy(s, window)
    above = np.nonzero(roll >= target)[0]
    return int(above[0]) + window if len(above) else len(s) + 1


def test_criterion_06_reranker_acceleration():
    t0 = time.time()
    cfg = _RECOVERY
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, cfg["c"])
    wins = []
    for seed in SEEDS:
        _, plain_succ, _ = _recovery_run(seed, 1.0)
        ep = EpisodeConfig(
            T=cfg["T"], I=cfg["I"], d=cfg["d"], K=10,
            schedule=sched, update_mode=UpdateMode.CHOSEN_ONLY,
            clip_propensity=cfg["clip"],
        )
        env = make_environment(ep, seed, noise_scale=cfg["noise"])
        truth = {f"q{t}": env.optimal_item(t) for t in range(1, ep.T + 1)}
        rr_rng = RandomSource(np.random.SeedSequence([seed, 6]).generate_state(1)[0])
        log = run_episode(
            env, ep, init_noise=1.0,
            reranker=make_stub_reranker(1.0, truth.__getitem__, rr_rng),
        )
        wins.append((_rounds_to_target(log.successes), _rounds_to_target(plain_succ)))
    ok = all(rerank < plain for rerank, plain in wins)
    elapsed = time.time() - t0
    _report(6, ok, f"rounds-to-90% rerank vs plain {wins[:3]}..., {elapsed:.0f}s")


def test_criterion_07_dynamic_catalog_adaptation():
    t0 = time.time()
    T = 10_000
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, 0.05)
    gaps, cur_probs, cf_probs = [], [], []
    for seed in SEEDS:
        ep = EpisodeConfig(
            T=T, I=50, d=16, schedule=sched,
            update_mode=UpdateMode.CHOSEN_ONLY,
            projection=ProjectionMode.UNIT_BALL, clip_propensity=0.01,
        )
        env = make_environment(ep, seed, noise_scale=0.2)
        initial_ids, deltas = half_withheld_scenario(env)
        insert_round = next(iter(deltas))
        late = set(env.ids) - set(initial_ids)
        cat = initial_catalog(env, 1.0, projection=ep.projection, restrict_to=initial_ids)
        rng = RandomSource(np.random.SeedSequence([seed, 4]).generate_state(1)[0])
        hits = []
        for t in range(1, T + 1):
            if t in deltas:
                apply_delta(cat, deltas[t], t)
                # counterfactual: the same late rows inserted into the
                # untouched round-1 catalog
                untouched = initial_catalog(
                    env, 1.0, projection=ep.projection, restrict_to=initial_ids
                )
                for item_id, vec in deltas[t].added:
                    untouched.add_item(item_id, vec)
                adapted, fresh = [], []
                for s in range(t, T + 1):
                    if env.optimal_item(s) in late:
                        q = env.query_at(s)
                        target = env.optimal_item(s)
                        adapted.append(score(q, cat)[target])
                        fresh.append(score(q, untouched)[target])
                cur_probs.append(float(np.mean(adapted)))
                cf_probs.append(float(np.mean(fresh)))
            q = env.query_at(t)
            p = score(q, cat)
            hits.append(p.ids[int(np.argmax(p.probs))] == env.optimal_item(t))
            step(
                q, cat, rng, sched, UpdateMode.CHOSEN_ONLY, t,
                lambda tt, ch: ch == env.optimal_item(tt), clip_propensity=0.01,
            )
        hits = np.array(hits, dtype=float)
        dec = T // 10
        gaps.append(hits[-dec:].mean() - hits[insert_round:insert_round + dec].mean())
    gap = float(np.mean(gaps))
    cur, cf = float(np.mean(cur_probs)), float(np.mean(cf_probs))
    elapsed = time.time() - t0
    _report(7, gap > 0.0 and cur > cf,
            f"final-vs-post-insert accuracy gap {gap:.3f}, "
            f"insertion-time p(late i*) {cur:.4f} > counterfactual {cf:.4f}, {elapsed:.0f}s")


def test_criterion_08_multihop_improvement():
    t0 = time.time()
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, 0.1)
    gains = []
    for seed in SEEDS:
        ep = EpisodeConfig(
            T=2000, I=20, d=8, schedule=sched,
            update_mode=UpdateMode.CHOSEN_ONLY, clip_propensity=0.01,
        )
        env = make_environment(ep, seed, noise_scale=0.3)
        log = run_episode(
            env, ep, init_noise=1.0,
            multihop_rounds=make_multihop_rounds(env, hops=2),
        )
        by_round = {}
        for rec in log.rounds:
            by_round.setdefault(rec.t, []).append(rec.success)
        chain = np.array([all(v) for v in by_round.values()], dtype=float)
        dec = len(chain) // 10
        gains.append(chain[-dec:].mean() - chain[:dec].mean())
    mean_gain = float(np.mean(gains))
    elapsed = time.time() - t0
    _report(8, mean_gain >= 0.10,
            f"mean 2-hop chain success gain {mean_gain:.3f}, {elapsed:.0f}s")


def test_criterion_09_metric_unit_checks():
    from orag.policy import ProbabilityVector

    uniform4 = ProbabilityVector(("a", "b", "c", "d"), np.full(4, 0.25))
    ce_ok = abs(cross_entropy_loss(uniform4, "b") - np.log(4.0)) < 1e-12

    ranked = RankedList(("x", "y", "z"), frozenset({"y"}))
    ndcg_ok = abs(ndcg_at_k(ranked, 3) - 1.0 / np.log2(3.0)) < 1e-12

    rng = np.random.default_rng(2)
    mono_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 12))
        order = tuple(rng.permutation([f"i{k}" for k in range(n)]))
        relevant = frozenset(
            rng.choice(order, size=int(rng.integers(1, n + 1)), replace=False)
        )
        rl = RankedList(order, relevant)
        vals = [recall_at_k(rl, k) for k in range(1, n + 1)]
        mono_ok &= all(b >= a for a, b in zip(vals, vals[1:]))

    _report(9, ce_ok and ndcg_ok and mono_ok,
            f"ln4 {ce_ok}, ndcg rank-2 {ndcg_ok}, recall monotone {mono_ok}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    ep = EpisodeConfig(T=150, I=8, d=4)

    def one_run():
        env = make_environment(ep, 42)
        return run_episode(env, ep, init_noise=0.8)

    a, b = one_run(), one_run()
    paths = [str(tmp_path / f"events{k}.jsonl") for k in (0, 1)]
    write_event_log(a.rounds, paths[0])
    write_event_log(b.rounds, paths[1])
    log_ok = Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    snap_path = str(tmp_path / "final.orag")
    write_snapshot(a.final_catalog, snap_path)
    back = read_snapshot(snap_path)
    snap_ok = (
        back.ids == a.final_catalog.ids
        and back.matrix().tobytes() == a.final_catalog.matrix().tobytes()
    )

    round_trip = read_event_log(paths[0])
    value_ok = round_trip == a.rounds

    _report(10, log_ok and snap_ok and value_ok,
            f"byte-identical logs {log_ok}, bitwise snapshot {snap_ok}, "
            f"value-exact round-trip {value_ok}")
