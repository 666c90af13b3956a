import math

import numpy as np
import pytest

from orag.catalog import Catalog, ProjectionMode
from orag.errors import EmptyBatch, GenerationMismatch, PropensityMismatch, ZeroPropensity
from orag.learner import (
    Feedback,
    GradientBatch,
    LearningRateSchedule,
    RoundRecord,
    ScheduleKind,
    UpdateMode,
    apply_update,
    estimate_gradient_batched,
    estimate_gradient_chosen_only,
    estimate_gradient_full,
    horizon_tuned_eta,
    step,
)
from orag.metrics import cross_entropy_loss
from orag.policy import ProbabilityVector, RandomSource, score
from orag.simulator import EpisodeConfig, make_environment, run_episode


def _pv(ids, probs, generation=0):
    return ProbabilityVector(tuple(ids), np.asarray(probs, dtype=float), generation)


def test_full_gradient_success_half_half():
    p = _pv(("item1", "item2"), [0.5, 0.5])
    fb = Feedback(chosen="item1", success=True, propensity=0.5)
    g = estimate_gradient_full(p, np.array([1.0, 0.0]), fb)
    np.testing.assert_allclose(g["item1"], [-1.5, 0.0])
    np.testing.assert_allclose(g["item2"], [0.5, 0.0])


def test_full_gradient_failure_drops_indicator_term():
    p = _pv(("item1", "item2"), [0.5, 0.5])
    fb = Feedback(chosen="item1", success=False, propensity=0.5)
    g = estimate_gradient_full(p, np.array([1.0, 0.0]), fb)
    np.testing.assert_allclose(g["item1"], [0.5, 0.0])
    np.testing.assert_allclose(g["item2"], [0.5, 0.0])


def test_full_gradient_vanishes_at_certainty():
    p = _pv(("a", "b"), [1.0, 0.0])
    fb = Feedback(chosen="a", success=True, propensity=1.0)
    g = estimate_gradient_full(p, np.array([3.0, -2.0]), fb)
    np.testing.assert_allclose(g["a"], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g["b"], [0.0, 0.0], atol=1e-15)


def test_chosen_only_gradient_substitution():
    p = _pv(("a", "b", "c", "d"), [0.25, 0.25, 0.25, 0.25])
    fb = Feedback(chosen="a", success=True, propensity=0.25)
    g = estimate_gradient_chosen_only(p, np.array([2.0]), fb)
    np.testing.assert_allclose(g["a"], [-6.0])
    assert "b" not in g


def test_chosen_only_failure_is_plain_query():
    p = _pv(("a", "b"), [0.7, 0.3])
    fb = Feedback(chosen="b", success=False, propensity=0.3)
    g = estimate_gradient_chosen_only(p, np.array([1.0, 2.0]), fb)
    np.testing.assert_allclose(g["b"], [1.0, 2.0])


def test_chosen_only_vanishes_at_certainty():
    p = _pv(("a",), [1.0])
    fb = Feedback(chosen="a", success=True, propensity=1.0)
    g = estimate_gradient_chosen_only(p, np.array([5.0]), fb)
    np.testing.assert_allclose(g["a"], [0.0])


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
    np.testing.assert_allclose(clipped["a"], [1.0 - 100.0])


def test_batched_single_event_equals_full():
    p = _pv(("a", "b"), [0.6, 0.4])
    q = np.array([1.0, -1.0])
    fb = Feedback("b", True, 0.4)
    single = estimate_gradient_full(p, q, fb)
    batch = estimate_gradient_batched([(p, q, fb)])
    for i in p.ids:
        np.testing.assert_allclose(batch[i], single[i])


def test_batched_identical_events_average_to_one():
    p = _pv(("a", "b"), [0.6, 0.4])
    q = np.array([2.0, 0.0])
    fb = Feedback("a", False, 0.6)
    single = estimate_gradient_full(p, q, fb)
    batch = estimate_gradient_batched([(p, q, fb), (p, q, fb)])
    for i in p.ids:
        np.testing.assert_allclose(batch[i], single[i])


def test_batched_three_mixed_events_is_the_mean():
    rng = np.random.default_rng(0)
    ids = ("a", "b", "c")
    events = []
    for _ in range(3):
        raw = rng.dirichlet(np.ones(3))
        p = _pv(ids, raw)
        chosen = ids[int(rng.integers(3))]
        fb = Feedback(chosen, bool(rng.integers(2)), p[chosen])
        events.append((p, rng.normal(size=2), fb))
    batch = estimate_gradient_batched(events)
    singles = [estimate_gradient_full(p, q, fb) for p, q, fb in events]
    for i in ids:
        expected = sum(s[i] for s in singles) / 3.0
        np.testing.assert_allclose(batch[i], expected, atol=1e-14)


def test_batched_rejects_empty_and_mixed_generations():
    with pytest.raises(EmptyBatch):
        estimate_gradient_batched([])
    p0 = _pv(("a",), [1.0], generation=0)
    p1 = _pv(("a",), [1.0], generation=1)
    fb = Feedback("a", True, 1.0)
    with pytest.raises(GenerationMismatch):
        estimate_gradient_batched([(p0, np.ones(1), fb), (p1, np.ones(1), fb)])


def test_apply_update_arithmetic():
    cat = Catalog(2, [("a", [0.0, 0.0])])
    apply_update(cat, GradientBatch({"a": np.array([1.0, 0.0])}), eta=0.1)
    np.testing.assert_allclose(cat.row("a"), [-0.1, 0.0])


def test_apply_update_projection():
    cat = Catalog(2, [("a", [1.0, 0.0])], projection=ProjectionMode.UNIT_BALL)
    apply_update(cat, GradientBatch({"a": np.array([-10.0, 0.0])}), eta=0.2)
    np.testing.assert_allclose(cat.row("a"), [1.0, 0.0])


def test_apply_update_rejects_nonpositive_eta():
    cat = Catalog(1, [("a", [0.0])])
    with pytest.raises(ValueError):
        apply_update(cat, GradientBatch({"a": np.zeros(1)}), eta=0.0)


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
