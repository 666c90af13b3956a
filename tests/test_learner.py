import math

import numpy as np
import pytest

from orag.catalog import Catalog, ProjectionMode
from orag.errors import PropensityMismatch, UnknownId, ZeroPropensity
from orag.learner import (
    Feedback,
    GradientBatch,
    LearningRateSchedule,
    RoundRecord,
    ScheduleKind,
    UpdateMode,
    apply_update,
    estimate_gradient_chosen_only,
    estimate_gradient_full,
    horizon_tuned_eta,
    step,
)
from orag.metrics import cross_entropy_loss
from orag.policy import ProbabilityVector, RandomSource, score
from orag.simulator import EpisodeConfig, make_environment, run_episode


def _pv(ids, probs):
    return ProbabilityVector(tuple(ids), np.asarray(probs, dtype=float))


def test_full_gradient_success_half_half():
    p = _pv(("item1", "item2"), [0.5, 0.5])
    fb = Feedback(chosen="item1", success=True, propensity=0.5)
    g = estimate_gradient_full(p, np.array([1.0, 0.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("item1")] * g.q, [-1.5, 0.0])
    np.testing.assert_allclose(g.coeff[g.ids.index("item2")] * g.q, [0.5, 0.0])


def test_full_gradient_failure_drops_indicator_term():
    p = _pv(("item1", "item2"), [0.5, 0.5])
    fb = Feedback(chosen="item1", success=False, propensity=0.5)
    g = estimate_gradient_full(p, np.array([1.0, 0.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("item1")] * g.q, [0.5, 0.0])
    np.testing.assert_allclose(g.coeff[g.ids.index("item2")] * g.q, [0.5, 0.0])


def test_full_gradient_vanishes_at_certainty():
    p = _pv(("a", "b"), [1.0, 0.0])
    fb = Feedback(chosen="a", success=True, propensity=1.0)
    g = estimate_gradient_full(p, np.array([3.0, -2.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("a")] * g.q, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g.coeff[g.ids.index("b")] * g.q, [0.0, 0.0], atol=1e-15)


def test_chosen_only_gradient_substitution():
    p = _pv(("a", "b", "c", "d"), [0.25, 0.25, 0.25, 0.25])
    fb = Feedback(chosen="a", success=True, propensity=0.25)
    g = estimate_gradient_chosen_only(p, np.array([2.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("a")] * g.q, [-6.0])
    assert "b" not in g.ids


def test_chosen_only_failure_is_plain_query():
    p = _pv(("a", "b"), [0.7, 0.3])
    fb = Feedback(chosen="b", success=False, propensity=0.3)
    g = estimate_gradient_chosen_only(p, np.array([1.0, 2.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("b")] * g.q, [1.0, 2.0])


def test_chosen_only_vanishes_at_certainty():
    p = _pv(("a",), [1.0])
    fb = Feedback(chosen="a", success=True, propensity=1.0)
    g = estimate_gradient_chosen_only(p, np.array([5.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("a")] * g.q, [0.0])


def test_propensity_must_match_probability_vector():
    p = _pv(("a", "b"), [0.5, 0.5])
    with pytest.raises(PropensityMismatch):
        estimate_gradient_full(p, np.ones(2), Feedback("a", True, 0.4))
    with pytest.raises(ZeroPropensity):
        estimate_gradient_chosen_only(p, np.ones(2), Feedback("a", True, 0.0))


def test_propensity_clipping_bounds_the_weight():
    p = _pv(("a", "b"), [1e-8, 1.0 - 1e-8])
    fb = Feedback(chosen="a", success=True, propensity=1e-8)
    clipped = estimate_gradient_chosen_only(p, np.array([1.0]), fb, clip_propensity=0.01)
    np.testing.assert_allclose(clipped.coeff[clipped.ids.index("a")] * clipped.q,
                               [1.0 - 100.0])


def test_apply_update_arithmetic():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    apply_update(cat, GradientBatch(("a",), np.ones(1), np.array([1.0, 0.0])), eta=0.1)
    np.testing.assert_allclose(cat.row("a"), [-0.1, 0.0])


def test_apply_update_projection():
    cat = Catalog(2, [("a", [1.0, 0.0])], projection=ProjectionMode.UNIT_BALL)
    apply_update(cat, GradientBatch(("a",), np.ones(1), np.array([-10.0, 0.0])), eta=0.2)
    np.testing.assert_allclose(cat.row("a"), [1.0, 0.0])


def test_apply_update_rejects_nonpositive_eta():
    cat = Catalog(1, [("a", [0.0])])
    with pytest.raises(ValueError):
        apply_update(cat, GradientBatch(("a",), np.zeros(1), np.zeros(1)), eta=0.0)


def test_schedules():
    const = LearningRateSchedule(ScheduleKind.CONSTANT, 0.3)
    assert const.eta(1) == const.eta(100) == 0.3
    inv = LearningRateSchedule(ScheduleKind.INVERSE_SQRT, 2.0)
    assert abs(inv.eta(4) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        LearningRateSchedule(ScheduleKind.CONSTANT, 0.0)


def test_horizon_tuned_eta_formula():
    theta_bar, p_low, q_bar, horizon = 4.0, 0.2, 1.5, 1000
    expected = math.sqrt(
        p_low * theta_bar / (q_bar * (1 - p_low) * (1 + 2 * p_low) * horizon)
    )
    assert abs(horizon_tuned_eta(theta_bar, p_low, q_bar, horizon) - expected) < 1e-15
    with pytest.raises(ValueError):
        horizon_tuned_eta(4.0, 1.5, 1.0, 10)
    with pytest.raises(ValueError):
        horizon_tuned_eta(-1.0, 0.5, 1.0, 10)


def test_horizon_tuned_eta_minimizes_the_regret_bound():
    """Derivation. Constant-step online gradient descent from theta_1, with
    theta_bar >= ||theta_1 - theta*||_F^2, has expected regret at most

        B(eta) = theta_bar / (2 eta) + (eta / 2) * sum_t E||g_t||_F^2.

    For the full-support estimate g = outer(p - s e_c / p_c, q), with c drawn
    from p and s = 1{c = i*}, E||g||^2 = ||q||^2 (sum_i p_i^2 + 1/p* - 2 p*)
    <= q_bar (1 + 1/p* - 2 p*) = q_bar (1 - p*)(1 + 2 p*) / p*, which falls as
    p* rises, so G = q_bar (1 - p_low)(1 + 2 p_low) / p_low bounds each term:

        B(eta) = theta_bar / (2 eta) + eta T G / 2.

    B is convex on eta > 0 and B'(eta) = -theta_bar / (2 eta^2) + T G / 2 is 0
    at eta* = sqrt(theta_bar / (T G)), `horizon_tuned_eta`'s formula. There
    both terms equal sqrt(theta_bar T G) / 2, so B(eta*) = sqrt(theta_bar T G).
    """
    for theta_bar in (0.1, 1.0, 4.0, 33.9):
        for p_low in (1e-4, 0.0071, 0.2, 0.5, 0.9):
            for q_bar in (0.5, 1.0, 1.5):
                for horizon in (1, 250, 2000, 10**6):
                    g = q_bar * (1 - p_low) * (1 + 2 * p_low) / p_low

                    def bound(eta):
                        return theta_bar / (2 * eta) + eta * horizon * g / 2

                    eta = horizon_tuned_eta(theta_bar, p_low, q_bar, horizon)
                    assert bound(eta) <= bound(eta * (1 - 1e-3))
                    assert bound(eta) <= bound(eta * (1 + 1e-3))
                    assert bound(eta) == pytest.approx(math.sqrt(theta_bar * horizon * g),
                                                       rel=1e-12)


def test_step_single_item_catalog_never_moves():
    cat = Catalog(2, [("only", [0.3, 0.4])])
    rng = RandomSource(0)
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, 0.5)
    rec = step(
        np.array([1.0, 1.0]), cat, rng, sched, UpdateMode.FULL, 1, lambda t, c: True
    )
    assert rec.success and rec.propensity == 1.0
    np.testing.assert_array_equal(cat.row("only"), [0.3, 0.4])


@pytest.mark.parametrize("mode", [UpdateMode.FULL, UpdateMode.CHOSEN_ONLY])
def test_step_refuses_a_chosen_id_that_p_does_not_hold(mode):
    cat = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
    before, generation = cat.matrix(), cat.generation
    asked = []
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, 0.5)
    with pytest.raises(UnknownId, match="'zz'"):
        step(np.array([1.0, 0.5]), cat, RandomSource(0), sched, mode, 1,
             lambda t, c: asked.append(c) or True, choose=lambda p, rng: "zz")
    assert asked == []  # the feedback oracle never ran
    assert cat.generation == generation and cat.matrix().tobytes() == before.tobytes()


def test_step_deterministic_across_runs():
    def run():
        ep = EpisodeConfig(T=100, I=8, d=4)
        env = make_environment(ep, 17)
        log = run_episode(env, ep, init_noise=0.8)
        return log

    a, b = run(), run()
    assert [(r.t, r.chosen, r.success, r.propensity) for r in a.rounds] == [
        (r.t, r.chosen, r.success, r.propensity) for r in b.rounds
    ]
    assert a.final_catalog.matrix().tobytes() == b.final_catalog.matrix().tobytes()


def test_step_improves_misaligned_two_item_instance():
    ep = EpisodeConfig(
        T=2000,
        I=2,
        d=4,
        schedule=LearningRateSchedule(ScheduleKind.CONSTANT, 0.05),
    )
    env = make_environment(ep, 0)
    log = run_episode(env, ep, init_noise=1.0)
    assert log.online_losses[-1] < log.online_losses[0]


def test_round_record_fields():
    rec = RoundRecord(t=3, query_id="q3", chosen="a", success=False, propensity=0.2, eta=0.1)
    assert rec.loss is None and rec.generation is None


def _alignment(cat, item, q):
    return float(cat.row(item) @ np.asarray(q))


def test_success_pulls_chosen_row_toward_query():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rows = [(f"i{k}", rng.normal(size=3)) for k in range(4)]
        cat = Catalog(3, rows)
        q = rng.normal(size=3)
        p = score(q, cat)
        chosen = p.ids[int(rng.integers(4))]
        before = _alignment(cat, chosen, q)
        fb = Feedback(chosen, True, p[chosen])
        apply_update(cat, estimate_gradient_full(p, q, fb), eta=0.1)
        after = _alignment(cat, chosen, q)
        if p[chosen] < 1.0 and np.any(q != 0):
            assert after > before


def test_failure_pushes_chosen_row_away_from_query():
    rng = np.random.default_rng(3)
    rows = [(f"i{k}", rng.normal(size=3)) for k in range(4)]
    cat = Catalog(3, rows)
    q = rng.normal(size=3)
    p = score(q, cat)
    chosen = p.ids[0]
    before = _alignment(cat, chosen, q)
    fb = Feedback(chosen, False, p[chosen])
    apply_update(cat, estimate_gradient_chosen_only(p, q, fb), eta=0.1)
    assert _alignment(cat, chosen, q) < before


def test_full_mode_decays_unchosen_alignments():
    rng = np.random.default_rng(4)
    rows = [(f"i{k}", rng.normal(size=3)) for k in range(4)]
    cat = Catalog(3, rows)
    q = rng.normal(size=3)
    p = score(q, cat)
    fb = Feedback(p.ids[1], True, p[p.ids[1]])
    before = {i: _alignment(cat, i, q) for i in p.ids}
    apply_update(cat, estimate_gradient_full(p, q, fb), eta=0.1)
    for i in p.ids:
        if i != p.ids[1]:
            assert _alignment(cat, i, q) < before[i]


def test_online_loss_monotone_on_repeated_fixed_query():
    # one query repeated with truthful feedback: chosen-only updates can only
    # help or leave the target's logit alone, so the loss trends down
    cat = Catalog(2, [("good", [0.1, 0.0]), ("bad", [0.5, 0.2])])
    q = np.array([1.0, 0.0])
    rng = RandomSource(9)
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, 0.2)
    losses = []
    for t in range(1, 301):
        losses.append(cross_entropy_loss(score(q, cat), "good"))
        step(q, cat, rng, sched, UpdateMode.FULL, t, lambda tt, ch: ch == "good")
    assert np.mean(losses[-30:]) < np.mean(losses[:30])


class _CountingSlots(dict):
    lookups = 0

    def __getitem__(self, key):
        _CountingSlots.lookups += 1
        return super().__getitem__(key)


def test_a_full_update_from_a_score_p_looks_up_no_id():
    rng = np.random.default_rng(22)
    cat = Catalog.from_rows(4, [f"i{k:03d}" for k in rng.permutation(200)], rng.normal(size=(200, 4)))
    cat.apply_changes([cat.ids[5]], [("new", rng.normal(size=4))])  # a fresh id set
    ref = cat.copy()
    cat._slot = _CountingSlots(cat._slot)
    q = rng.normal(size=4)
    p = score(q, cat)
    chosen = p.ids[17]
    g = estimate_gradient_full(p, q, Feedback(chosen, True, p[chosen]))
    apply_update(cat, g, 0.1)
    assert _CountingSlots.lookups == 0
    ref.update_rows(tuple(g.ids), g.coeff, g.q, 0.1)  # by id lookups
    assert cat.matrix().tobytes() == ref.matrix().tobytes()


def test_an_update_from_a_p_scored_before_a_removal_is_refused():
    cat = Catalog(2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [1.0, 1.0])])
    q = np.array([1.0, 0.5])
    p = score(q, cat)
    g = estimate_gradient_full(p, q, Feedback("a", True, p["a"]))
    cat.remove_item("b")
    before, generation = cat.matrix(), cat.generation
    with pytest.raises(UnknownId):
        apply_update(cat, g, 0.1)
    assert cat.generation == generation and cat.matrix().tobytes() == before.tobytes()
