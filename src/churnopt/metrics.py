"""Empirical campaign-profit metrics over score thresholds.

A customer with score <= t is classified a churner and targeted. Profit is
measured per customer, using one average CLV per (segment of the)
population; empirical class proportions and CDFs stand in for the
distributional quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .campaign import CampaignParams
from .data import quantile_segments

__all__ = [
    "ThresholdedEvaluation",
    "MspResult",
    "profit_at_threshold",
    "threshold_candidates",
    "mp",
    "msp",
    "accuracy",
    "targeted_fraction",
]


@dataclass(frozen=True)
class ThresholdedEvaluation:
    """Average campaign profit when targeting every score <= threshold."""

    threshold: float
    profit_per_customer: float
    targeted_churners: int
    targeted_nonchurners: int


def _as_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length 1-D")
    return scores, labels


def profit_at_threshold(
    scores, labels, t: float, params: CampaignParams, clv_avg: float
) -> ThresholdedEvaluation:
    """Per-customer average profit of targeting all scores <= t.

    Each targeted churner contributes gamma*(clv_avg - d) - f, each
    targeted non-churner costs d + f; both are averaged over the whole
    population of n customers.
    """
    scores, labels = _as_scores_labels(scores, labels)
    n = scores.size
    targeted = scores <= t
    n0 = int(np.sum(targeted & (labels == 0)))
    n1 = int(np.sum(targeted & (labels == 1)))
    churner_gain = params.gamma * (clv_avg - params.d) - params.f
    nonchurner_cost = params.d + params.f
    profit = (churner_gain * n0 - nonchurner_cost * n1) / n
    return ThresholdedEvaluation(
        threshold=float(t),
        profit_per_customer=float(profit),
        targeted_churners=n0,
        targeted_nonchurners=n1,
    )


def threshold_candidates(scores) -> np.ndarray:
    """-inf, midpoints between consecutive distinct sorted scores, +inf.

    The profit curve is piecewise constant with breakpoints only at
    observed scores, so these candidates cover every attainable campaign.
    """
    distinct = np.unique(np.asarray(scores, dtype=float))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf]))


def mp(scores, labels, params: CampaignParams, clv_avg: float) -> tuple[float, float]:
    """Maximum profit over a single threshold; ties go to the smallest campaign.

    Returns (best per-customer profit, best threshold).
    """
    scores, labels = _as_scores_labels(scores, labels)
    if scores.size == 0:
        raise ValueError("mp needs at least one customer")
    best_profit = -np.inf
    best_t = -np.inf
    for t in threshold_candidates(scores):
        profit = profit_at_threshold(scores, labels, t, params, clv_avg).profit_per_customer
        if profit > best_profit:
            best_profit = profit
            best_t = t
    return float(best_profit), float(best_t)


@dataclass(frozen=True)
class MspResult:
    """Per-segment maximum profits with segment-specific thresholds."""

    q: int
    thresholds: np.ndarray  # (q,) best threshold per segment
    segment_clv: np.ndarray  # (q,) mean CLV per segment
    msp: float  # unweighted mean of segment maxima, euros per customer

    def __post_init__(self) -> None:
        if len(self.thresholds) != self.q or len(self.segment_clv) != self.q:
            raise ValueError("thresholds and segment_clv must have length q")


def msp(scores, labels, clvs, q: int, params: CampaignParams) -> MspResult:
    """Maximum segment profit: CLV-quantile segments, each with its own threshold.

    Each segment is maximized independently using its own mean CLV; the
    MSP value is the unweighted average of the segment maxima. Note that
    with unequal segment sizes this is not a population average.
    """
    scores, labels = _as_scores_labels(scores, labels)
    clvs = np.asarray(clvs, dtype=float)
    assignment = quantile_segments(clvs, q)
    thresholds = np.empty(q, dtype=float)
    seg_clv = np.empty(q, dtype=float)
    seg_profit = np.empty(q, dtype=float)
    for s in range(q):
        idx = assignment.indices(s)
        seg_clv[s] = clvs[idx].mean()
        seg_profit[s], thresholds[s] = mp(scores[idx], labels[idx], params, seg_clv[s])
    return MspResult(
        q=q, thresholds=thresholds, segment_clv=seg_clv, msp=float(seg_profit.mean())
    )


def accuracy(decisions, labels) -> float:
    """Share of customers whose decision (1 = classified churner) matches label == 0."""
    decisions, labels = _as_scores_labels(decisions, labels)
    return float(np.mean((decisions == 1) == (labels == 0)))


def targeted_fraction(decisions) -> float:
    """Share of customers included in the campaign (mean decision)."""
    decisions = np.asarray(decisions, dtype=float)
    if decisions.size == 0:
        raise ValueError("targeted_fraction of an empty decision vector")
    return float(decisions.mean())
