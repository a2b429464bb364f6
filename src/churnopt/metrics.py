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


def mp(scores, labels, params: CampaignParams, clv_avg: float) -> tuple[float, float]:
    """Maximum profit over a single threshold; ties go to the smallest campaign.

    Targeting every score <= t, each targeted churner contributes
    gamma*(clv_avg - d) - f and each targeted non-churner costs d + f,
    averaged over all n customers. The profit curve is piecewise constant
    with breakpoints only at observed scores, so the candidates -inf, the
    midpoints of consecutive distinct scores and +inf cover every
    attainable campaign. Where a midpoint is not finite (a score is
    infinite, or the sum overflows), the lower score takes its place and
    targets the same customers. One sort of the scores gives the
    candidates, the customers each targets and, by a running count, its
    churners. Returns (best per-customer profit, best threshold).
    """
    scores, labels = _as_scores_labels(scores, labels)
    if scores.size == 0:
        raise ValueError("mp needs at least one customer")
    if np.isnan(scores).any():
        raise ValueError("mp needs scores that are not NaN")
    order = np.argsort(scores)
    ranked = scores[order]
    step = np.flatnonzero(ranked[1:] != ranked[:-1])
    lower = ranked[step]
    with np.errstate(over="ignore", invalid="ignore"):  # -inf + inf, or a sum past the float maximum
        mids = (lower + ranked[step + 1]) / 2.0
    # + 0.0 makes a zero lower score +0.0, whichever zero the sort put last in its run
    t = np.concatenate(([-np.inf], np.where(np.isfinite(mids), mids, lower + 0.0), [np.inf]))
    targeted = np.searchsorted(ranked, t, side="right")
    churners = np.concatenate(([0], np.cumsum(labels[order] == 0)))
    n0 = churners[targeted]
    n1 = targeted - n0
    churner_gain = params.gamma * (clv_avg - params.d) - params.f
    nonchurner_cost = params.d + params.f
    # a campaign without churners earns no churner term, also when clv_avg is infinite (inf * 0 is NaN)
    churner_term = np.multiply(churner_gain, n0, out=np.zeros(t.size), where=n0 > 0)
    profit = (churner_term - nonchurner_cost * n1) / scores.size
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

    Raises ValueError naming the segment whose CLVs sum past the float
    maximum, since its mean CLV is then not finite.
    """
    scores, labels = _as_scores_labels(scores, labels)
    clvs = np.asarray(clvs, dtype=float)
    segments = quantile_segments(clvs, q)
    with np.errstate(over="ignore"):  # a mean past the float maximum is refused below
        clv_avgs = [clvs[i].mean() for i in segments]
    for s, clv_avg in enumerate(clv_avgs):
        if not np.isfinite(clv_avg):
            raise ValueError(f"segment {s + 1} of {q}: mean CLV is {clv_avg}; it must be finite")
    seg_profit, thresholds = np.array([mp(scores[i], labels[i], params, a) for i, a in zip(segments, clv_avgs)]).T
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
