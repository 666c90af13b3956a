import math

import numpy as np
import pytest

from orag.catalog import Catalog, ProjectionMode
from orag.errors import PropensityMismatch, ZeroPropensity
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
    np.testing.assert_allclose(g.coeff[g.ids.index("item1")] @ g.queries, [-1.5, 0.0])
    np.testing.assert_allclose(g.coeff[g.ids.index("item2")] @ g.queries, [0.5, 0.0])


def test_full_gradient_failure_drops_indicator_term():
    p = _pv(("item1", "item2"), [0.5, 0.5])
    fb = Feedback(chosen="item1", success=False, propensity=0.5)
    g = estimate_gradient_full(p, np.array([1.0, 0.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("item1")] @ g.queries, [0.5, 0.0])
    np.testing.assert_allclose(g.coeff[g.ids.index("item2")] @ g.queries, [0.5, 0.0])


def test_full_gradient_vanishes_at_certainty():
    p = _pv(("a", "b"), [1.0, 0.0])
    fb = Feedback(chosen="a", success=True, propensity=1.0)
    g = estimate_gradient_full(p, np.array([3.0, -2.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("a")] @ g.queries, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g.coeff[g.ids.index("b")] @ g.queries, [0.0, 0.0], atol=1e-15)


def test_chosen_only_gradient_substitution():
    p = _pv(("a", "b", "c", "d"), [0.25, 0.25, 0.25, 0.25])
    fb = Feedback(chosen="a", success=True, propensity=0.25)
    g = estimate_gradient_chosen_only(p, np.array([2.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("a")] @ g.queries, [-6.0])
    assert "b" not in g.ids


def test_chosen_only_failure_is_plain_query():
    p = _pv(("a", "b"), [0.7, 0.3])
    fb = Feedback(chosen="b", success=False, propensity=0.3)
    g = estimate_gradient_chosen_only(p, np.array([1.0, 2.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("b")] @ g.queries, [1.0, 2.0])


def test_chosen_only_vanishes_at_certainty():
    p = _pv(("a",), [1.0])
    fb = Feedback(chosen="a", success=True, propensity=1.0)
    g = estimate_gradient_chosen_only(p, np.array([5.0]), fb)
    np.testing.assert_allclose(g.coeff[g.ids.index("a")] @ g.queries, [0.0])


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
    np.testing.assert_allclose(clipped.coeff[clipped.ids.index("a")] @ clipped.queries,
                               [1.0 - 100.0])


def test_apply_update_arithmetic():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    apply_update(cat, GradientBatch(("a",), np.ones((1, 1)), np.array([[1.0, 0.0]])), eta=0.1)
    np.testing.assert_allclose(cat.row("a"), [-0.1, 0.0])


def test_apply_update_projection():
    cat = Catalog(2, [("a", [1.0, 0.0])], projection=ProjectionMode.UNIT_BALL)
    apply_update(cat, GradientBatch(("a",), np.ones((1, 1)), np.array([[-10.0, 0.0]])), eta=0.2)
    np.testing.assert_allclose(cat.row("a"), [1.0, 0.0])


def test_apply_update_rejects_nonpositive_eta():
    cat = Catalog(1, [("a", [0.0])])
    with pytest.raises(ValueError):
        apply_update(cat, GradientBatch(("a",), np.zeros((1, 1)), np.zeros((1, 1))), eta=0.0)


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


def test_step_single_item_catalog_never_moves():
    cat = Catalog(2, [("only", [0.3, 0.4])])
    rng = RandomSource(0)
    sched = LearningRateSchedule(ScheduleKind.CONSTANT, 0.5)
    rec = step(
        np.array([1.0, 1.0]), cat, rng, sched, UpdateMode.FULL, 1, lambda t, c: True
    )
    assert rec.success and rec.propensity == 1.0
    np.testing.assert_array_equal(cat.row("only"), [0.3, 0.4])


def test_step_deterministic_across_runs():
    def run():
        ep = EpisodeConfig(T=100, I=8, d=4)
        env = make_environment(ep, 17)
        log = run_episode(env, ep, init_noise=0.8, record_losses=False)
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
