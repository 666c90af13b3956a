"""Bandit-feedback gradient estimation and `step`, the one online round.

Gradient estimators (per item i, chosen item c, success bit s, propensity
p_c = p[c] at decision time, query q):

  full support:   g_i = (p_i - 1{i=c} * s / p_c) * q
  chosen-only:    g_c = (1 - s / p_c) * q, all other items untouched

Both are unbiased for the full-information gradient (p_i - 1{i=i*}) * q
when the chosen item is drawn from p. The full estimate is the rank-1 block
outer(p - s * e_c / p_c, q); the chosen-only one is its row c. An estimate is
a `GradientBatch` of those coefficients and q, never an (I, d) block: what
`Catalog.update_rows` takes for the (projected) step
theta_i <- project(theta_i - eta_t * g_i). Every variant's round is `step`;
they differ only in how `choose` picks the item under p.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import Catalog, ItemId, SortedIds
from .errors import PropensityMismatch, UnknownId, ZeroPropensity, check_as
from .policy import ProbabilityVector, RandomSource, _as_query, sample_one, score

_PROPENSITY_TOL = 1e-12


@dataclass(slots=True)
class Feedback:
    chosen: ItemId
    success: bool
    propensity: float


@dataclass(slots=True)
class GradientBatch:
    """Update directions: the row for `ids[k]` is `coeff[k] * q`, (n,) over one (d,) query."""

    ids: SortedIds | tuple[ItemId, ...]  # the full support: a `score` p's `SortedIds`
    coeff: np.ndarray
    q: np.ndarray
    t: int = 0


class ScheduleKind(enum.Enum):
    CONSTANT = "constant"
    INVERSE_SQRT = "inverse_sqrt"


@dataclass
class LearningRateSchedule:
    kind: ScheduleKind = ScheduleKind.INVERSE_SQRT
    c: float = 1e-5

    def __post_init__(self):
        self.kind = check_as("kind", ScheduleKind)(self.kind)  # "constant" by value, as in JSON
        if not 0 < self.c < math.inf:  # NaN fails it too
            raise ValueError("c: schedule constant must be positive and finite")

    def eta(self, t: int) -> float:
        if self.kind is ScheduleKind.CONSTANT:
            return self.c
        return self.c / math.sqrt(t)


class UpdateMode(enum.Enum):
    FULL = "full"
    CHOSEN_ONLY = "chosen_only"


def horizon_tuned_eta(theta_bar: float, p_low: float, q_bar: float, horizon: int) -> float:
    """Constant step size minimizing the worst-case regret bound.

    theta_bar bounds the squared Frobenius distance from the initialization to
    the optimum, p_low lower-bounds the probability of the optimal item, q_bar
    bounds the squared query norm, over `horizon` rounds.
    """
    if not (0 < p_low < 1):
        raise ValueError("p_low must lie in (0, 1)")
    if not (0 < theta_bar < math.inf and 0 < q_bar < math.inf and horizon >= 1):  # NaN fails
        raise ValueError("theta_bar, q_bar must be positive and finite and horizon >= 1")
    return math.sqrt(p_low * theta_bar / (q_bar * (1 - p_low) * (1 + 2 * p_low) * horizon))


def _propensity(p: ProbabilityVector, k: int, fb: Feedback,
                clip_propensity: float | None) -> float:
    """p.probs[k], k the index of the chosen item, checked against the logged
    propensity and floored at `clip_propensity`."""
    prop, logged = float(p.probs[k]), fb.propensity
    if logged <= 0:
        raise ZeroPropensity(f"propensity {logged}")
    if abs(prop - logged) > _PROPENSITY_TOL:
        raise PropensityMismatch(f"feedback propensity {logged} != p[{fb.chosen}] = {prop}")
    return prop if clip_propensity is None else max(prop, clip_propensity)


def estimate_gradient_full(
    p: ProbabilityVector, q, fb: Feedback, t: int = 0, clip_propensity: float | None = None
) -> GradientBatch:
    """Importance-weighted estimate with support on every catalog item.

    `clip_propensity` floors the denominator; it trades the exact
    unbiasedness for bounded weights and is off by default.
    """
    k = p.index_of(fb.chosen)
    prop = _propensity(p, k, fb, clip_propensity)
    coeff = p.probs.copy()  # p - s * e_c / p_c
    if fb.success:
        coeff[k] -= 1.0 / prop
    return GradientBatch(p.ids, coeff, _as_query(q), t=t)


def estimate_gradient_chosen_only(
    p: ProbabilityVector, q, fb: Feedback, t: int = 0, clip_propensity: float | None = None
) -> GradientBatch:
    """Cheaper estimate touching only the chosen item's row."""
    prop = _propensity(p, p.index_of(fb.chosen), fb, clip_propensity)
    coeff = 1.0 - (1.0 / prop if fb.success else 0.0)
    return GradientBatch((fb.chosen,), np.array([coeff]), _as_query(q), t=t)


def apply_update(catalog: Catalog, g: GradientBatch, eta: float) -> None:
    """theta_i <- project(theta_i - eta * g_i); rows absent from g unchanged."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    # Positional: the benchmark's tracer counts the rows in the second argument.
    catalog.update_rows(g.ids, g.coeff, g.q, eta)


@dataclass(slots=True)
class RoundRecord:
    t: int
    query_id: str
    chosen: ItemId
    success: bool
    propensity: float
    eta: float
    loss: float | None = None
    generation: int | None = None
    hop: int | None = None  # h of a multi-hop round's h-th hop, all at its round's t


FeedbackOracle = Callable[[int, ItemId], bool]


def step(
    q,
    catalog: Catalog,
    rng: RandomSource,
    schedule: LearningRateSchedule,
    update_mode: UpdateMode,
    t: int,
    feedback_oracle: FeedbackOracle,
    clip_propensity: float | None = None,
    choose: Callable[[ProbabilityVector, RandomSource], ItemId] | None = None,
) -> RoundRecord:
    """One online round: score, pick with `choose(p, rng)` (one `sample_one` draw if None),
    get feedback, estimate with the single-draw propensity p[chosen], update, record.
    A chosen id that p does not hold is `UnknownId`, before the feedback or any write."""
    if t < 1:
        raise ValueError("round index t starts at 1")
    p = score(q, catalog)
    chosen = sample_one(p, rng) if choose is None else choose(p, rng)
    try:
        propensity = float(p.probs[p.index_of(chosen)])
    except KeyError:
        raise UnknownId(f"choose returned {chosen!r}, which is not a scored item") from None
    fb = Feedback(chosen, bool(feedback_oracle(t, chosen)), propensity)
    estimate = (estimate_gradient_full if update_mode is UpdateMode.FULL
                else estimate_gradient_chosen_only)
    eta = schedule.eta(t)
    apply_update(catalog, estimate(p, q, fb, t, clip_propensity), eta)
    return RoundRecord(t, getattr(q, "query_id", ""), chosen, fb.success, propensity, eta,
                       generation=catalog.generation)
