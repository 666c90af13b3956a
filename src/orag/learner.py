"""Bandit-feedback gradient estimation and the online update step.

Gradient estimators (per item i, chosen item c, success bit s, propensity
p_c = p[c] at decision time, query q):

  full support:   g_i = (p_i - 1{i=c} * s / p_c) * q
  chosen-only:    g_c = (1 - s / p_c) * q, all other items untouched

Both are unbiased for the full-information gradient (p_i - 1{i=i*}) * q
when the chosen item is drawn from p. Updates are plain (projected) gradient
steps theta_i <- project(theta_i - eta_t * g_i).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import Catalog, ItemId
from .errors import (
    EmptyBatch,
    GenerationMismatch,
    PropensityMismatch,
    ZeroPropensity,
)
from .policy import ProbabilityVector, RandomSource, _as_query, sample_one, score

_PROPENSITY_TOL = 1e-12


@dataclass
class Feedback:
    chosen: ItemId
    success: bool
    propensity: float


@dataclass
class GradientBatch:
    """Per-item update directions for one round (or one averaged batch)."""

    directions: dict[ItemId, np.ndarray]
    t: int = 0

    def __getitem__(self, item_id: ItemId) -> np.ndarray:
        return self.directions[item_id]

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self.directions


class ScheduleKind(enum.Enum):
    CONSTANT = "constant"
    INVERSE_SQRT = "inverse_sqrt"


@dataclass
class LearningRateSchedule:
    kind: ScheduleKind = ScheduleKind.INVERSE_SQRT
    c: float = 1e-5

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("schedule constant must be positive")

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
    if theta_bar <= 0 or q_bar <= 0 or horizon < 1:
        raise ValueError("theta_bar, q_bar must be positive and horizon >= 1")
    return math.sqrt(p_low * theta_bar / (q_bar * (1 - p_low) * (1 + 2 * p_low) * horizon))


def _propensity(p: ProbabilityVector, fb: Feedback, clip_propensity: float | None) -> float:
    """p[chosen] checked against the logged propensity, floored at `clip_propensity`."""
    prop = p[fb.chosen]
    if fb.propensity <= 0:
        raise ZeroPropensity(f"propensity {fb.propensity}")
    if abs(prop - fb.propensity) > _PROPENSITY_TOL:
        raise PropensityMismatch(
            f"feedback propensity {fb.propensity} != p[{fb.chosen}] = {prop}"
        )
    return prop if clip_propensity is None else max(prop, clip_propensity)


def _full_rows(p: ProbabilityVector, q, fb: Feedback, clip_propensity: float | None) -> np.ndarray:
    """The full-support gradient as one (I, d) block, rows in `p.ids` order."""
    prop = _propensity(p, fb, clip_propensity)
    coeff = p.probs.copy()
    if fb.success:
        coeff[p.index_of(fb.chosen)] -= 1.0 / prop
    return np.outer(coeff, _as_query(q))


def estimate_gradient_full(
    p: ProbabilityVector, q, fb: Feedback, t: int = 0, clip_propensity: float | None = None
) -> GradientBatch:
    """Importance-weighted estimate with support on every catalog item.

    `clip_propensity` floors the denominator; it trades the exact
    unbiasedness for bounded weights and is off by default.
    """
    return GradientBatch(dict(zip(p.ids, _full_rows(p, q, fb, clip_propensity))), t=t)


def estimate_gradient_chosen_only(
    p: ProbabilityVector, q, fb: Feedback, t: int = 0, clip_propensity: float | None = None
) -> GradientBatch:
    """Cheaper estimate touching only the chosen item's row."""
    prop = _propensity(p, fb, clip_propensity)
    coeff = 1.0 - (1.0 / prop if fb.success else 0.0)
    return GradientBatch({fb.chosen: coeff * _as_query(q)}, t=t)


def estimate_gradient_batched(
    events: Sequence[tuple[ProbabilityVector, object, Feedback]], t: int = 0
) -> GradientBatch:
    """Arithmetic mean of per-event full gradients at one fixed catalog state."""
    if len(events) == 0:
        raise EmptyBatch("batch must contain at least one event")
    gen = events[0][0].generation
    total = None
    for p, q, fb in events:
        if p.generation != gen:
            raise GenerationMismatch(
                f"batch mixes catalog generations {gen} and {p.generation}"
            )
        rows = _full_rows(p, q, fb, None)
        total = rows if total is None else total + rows
    return GradientBatch(dict(zip(events[0][0].ids, total * (1.0 / len(events)))), t=t)


def apply_update(catalog: Catalog, g: GradientBatch, eta: float) -> None:
    """theta_i <- project(theta_i - eta * g_i); rows absent from g unchanged."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    catalog.update_rows(g.directions, eta)


@dataclass
class RoundRecord:
    t: int
    query_id: str
    chosen: ItemId
    success: bool
    propensity: float
    eta: float
    loss: float | None = None
    generation: int | None = None


FeedbackOracle = Callable[[int, ItemId], bool]


def learn_from_feedback(
    p: ProbabilityVector,
    q,
    chosen: ItemId,
    success: bool,
    catalog: Catalog,
    eta: float,
    update_mode: UpdateMode,
    t: int,
    query_id: str,
    clip_propensity: float | None = None,
) -> RoundRecord:
    """Turn one success bit into a gradient estimate, update the catalog, record the round.

    The single update path shared by every step function; `p` is the policy
    the chosen item was drawn under.
    """
    fb = Feedback(chosen=chosen, success=success, propensity=p[chosen])
    if update_mode is UpdateMode.FULL:
        g = estimate_gradient_full(p, q, fb, t=t, clip_propensity=clip_propensity)
    else:
        g = estimate_gradient_chosen_only(p, q, fb, t=t, clip_propensity=clip_propensity)
    apply_update(catalog, g, eta)
    return RoundRecord(
        t=t,
        query_id=query_id,
        chosen=chosen,
        success=success,
        propensity=fb.propensity,
        eta=eta,
        generation=catalog.generation,
    )


def step(
    q,
    catalog: Catalog,
    rng: RandomSource,
    schedule: LearningRateSchedule,
    update_mode: UpdateMode,
    t: int,
    feedback_oracle: FeedbackOracle,
    query_id: str = "",
    clip_propensity: float | None = None,
) -> RoundRecord:
    """One full online round: score, sample, get feedback, estimate, update."""
    if t < 1:
        raise ValueError("round index t starts at 1")
    p = score(q, catalog)
    chosen = sample_one(p, rng)
    success = bool(feedback_oracle(t, chosen))
    return learn_from_feedback(
        p, q, chosen, success, catalog, schedule.eta(t), update_mode, t,
        query_id or getattr(q, "query_id", ""), clip_propensity,
    )
