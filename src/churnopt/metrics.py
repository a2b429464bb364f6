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
    "MspResult",
    "threshold_candidates",
    "mp",
    "msp",
    "accuracy",
    "targeted_fraction",
]


def _as_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length 1-D")
    return scores, labels


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

    Targeting every score <= t, each targeted churner contributes
    gamma*(clv_avg - d) - f and each targeted non-churner costs d + f,
    averaged over all n customers. One sorted sweep counts both classes
    at every candidate threshold. Returns (best per-customer profit,
    best threshold).
    """
    scores, labels = _as_scores_labels(scores, labels)
    if scores.size == 0:
        raise ValueError("mp needs at least one customer")
    if np.isnan(scores).any():
        raise ValueError("mp needs scores that are not NaN")
    t = threshold_candidates(scores)
    n0 = np.searchsorted(np.sort(scores[labels == 0]), t, side="right")
    n1 = np.searchsorted(np.sort(scores[labels == 1]), t, side="right")
    # the midpoint of -inf and +inf is NaN, and no score is <= NaN
    n0[np.isnan(t)] = 0
    n1[np.isnan(t)] = 0
    churner_gain = params.gamma * (clv_avg - params.d) - params.f
    nonchurner_cost = params.d + params.f
    profit = (churner_gain * n0 - nonchurner_cost * n1) / scores.size
    # with an infinite clv_avg, a campaign without churners scores inf * 0 = NaN: never the best
    profit[np.isnan(profit)] = -np.inf
    i = int(np.argmax(profit))
    return float(profit[i]), float(t[i])


@dataclass(frozen=True)
class MspResult:
    """Per-segment maximum profits with segment-specific thresholds."""

    thresholds: np.ndarray  # (q,) best threshold per segment
    edges: np.ndarray  # (q - 1,) upper CLV edge of each segment but the last
    msp: float  # unweighted mean of segment maxima, euros per customer


def msp(scores, labels, clvs, q: int, params: CampaignParams) -> MspResult:
    """Maximum segment profit: CLV-quantile segments, each with its own threshold.

    Each segment is maximized independently using its own mean CLV; the
    MSP value is the unweighted average of the segment maxima. Note that
    with unequal segment sizes this is not a population average. The
    segment edges carry the thresholds over to other customers through
    :func:`~churnopt.data.assign_segments`.
    """
    scores, labels = _as_scores_labels(scores, labels)
    clvs = np.asarray(clvs, dtype=float)
    segments = quantile_segments(clvs, q)
    seg_profit, thresholds = np.array([mp(scores[i], labels[i], params, clvs[i].mean()) for i in segments]).T
    edges = np.array([clvs[i].max() for i in segments[:-1]], dtype=float)
    return MspResult(thresholds, edges, float(seg_profit.mean()))


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
