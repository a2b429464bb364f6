"""Retention-campaign cost model and the regret loss built on it.

Label convention everywhere in this package: ``y = 0`` is a churner,
``y = 1`` is a non-churner. Scores estimate y, so *low* scores mean
"likely churner". All money amounts are euros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._settings import check_settings, setting

__all__ = [
    "CampaignParams",
    "sigmoid",
    "campaign_cost",
    "break_even_clv",
    "midpoint",
    "prescribe",
    "optimal_decision",
    "regret",
    "surrogate",
    "smooth_regret_terms",
    "smooth_regret_loss",
    "smooth_regret",
    "smooth_regret_grad",
    "total_profit",
    "optimal_total_profit",
    "normalized_gap",
]


@dataclass(frozen=True)
class CampaignParams:
    """Economic parameters of a retention campaign.

    f: cost of contacting one customer.
    d: monetary incentive, paid only when a contacted would-be churner
       accepts the offer.
    gamma: fraction of contacted would-be churners who accept and stay.
    slope: steepness of the sigmoid surrogate used by the smooth regret
       loss.
    """

    f: float = setting(ge=0)
    d: float = setting(gt=0)
    gamma: float = setting(gt=0, le=1)
    slope: float = setting(10.0, gt=0)

    def __post_init__(self) -> None:
        check_settings(self)


def sigmoid(x):
    """Numerically stable logistic 1 / (1 + exp(-x)).

    With e = exp(-|x|), which never overflows, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) otherwise, so arguments of any magnitude
    (slope times score gap) are safe.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return _scalar_or_array(np.where(x >= 0, 1.0, e) / (1.0 + e))


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _cost_coefficient(y, params: CampaignParams, clv):
    """Cost of targeting (z = 1): f + y*d + (1 - y)*gamma*(d - clv)."""
    y = np.asarray(y, dtype=float)
    clv = np.asarray(clv, dtype=float)
    return params.f + y * params.d + (1.0 - y) * params.gamma * (params.d - clv)


def campaign_cost(z, y, params: CampaignParams, clv):
    """Realized cost of decision z for a customer with true label y.

    z may be binary or a relaxed value in [0, 1]; the cost is linear in z,
    so c(z) = z * c(1) exactly. Negative cost means the campaign earned
    money on this customer.
    """
    return np.asarray(z, dtype=float) * _cost_coefficient(y, params, clv)


def break_even_clv(params: CampaignParams) -> float:
    """CLV at which targeting a churner costs exactly zero: d + f / gamma.

    Customers at or below this value are never worth targeting.
    """
    return params.d + params.f / params.gamma


def midpoint(params: CampaignParams, clv):
    """Score threshold below which targeting is the cheaper decision.

    m = (f + gamma*(d - clv)) / (gamma*(d - clv) - d). Lies in (0, 1) for
    customers above break-even CLV and at or below 0 otherwise. The
    denominator is strictly negative for every clv > 0; a vanishing
    denominator therefore signals invalid inputs and raises.
    """
    clv = np.asarray(clv, dtype=float)
    num = params.f + params.gamma * (params.d - clv)
    den = params.gamma * (params.d - clv) - params.d
    if np.any(np.abs(den) < 1e-12):
        raise ValueError("degenerate midpoint denominator; requires clv > 0 and d > 0")
    return _scalar_or_array(num / den)


def prescribe(y_hat, m):
    """Step decision: target (z = 1) iff y_hat < m, strictly, else 0."""
    z = np.where(np.asarray(y_hat, dtype=float) < np.asarray(m, dtype=float), 1, 0)
    if z.ndim == 0:
        return int(z)
    return z


def optimal_decision(y, params: CampaignParams, clv):
    """Cost-minimizing decision given the true label.

    0 for customers at or below break-even CLV regardless of label,
    otherwise 1 - y (target exactly the churners).
    """
    y = np.asarray(y)
    clv = np.asarray(clv, dtype=float)
    z = np.where(clv <= break_even_clv(params), 0, 1 - y)
    if z.ndim == 0:
        return int(z)
    return z


def regret(y, y_hat, params: CampaignParams, clv):
    """Excess cost of the score-prescribed decision over the optimal one.

    Nonnegative wherever the prescription can differ from the optimum;
    zero iff they agree.
    """
    z_hat = prescribe(y_hat, midpoint(params, clv))
    z_opt = optimal_decision(y, params, clv)
    return _scalar_or_array(campaign_cost(z_hat, y, params, clv) - campaign_cost(z_opt, y, params, clv))


def surrogate(y_hat, m, slope: float):
    """Sigmoid relaxation of the step decision: 1 - sigmoid(slope*(y_hat - m)).

    Monotonically decreasing in y_hat, 0.5 at y_hat = m, and approaching
    the step function as slope grows.
    """
    if not slope > 0:
        raise ValueError(f"slope must be > 0, got {slope}")
    return 1.0 - sigmoid(slope * (np.asarray(y_hat, dtype=float) - np.asarray(m, dtype=float)))


def smooth_regret_terms(y, params: CampaignParams, clv):
    """Per-customer constants of the smooth regret: (midpoint, targeting cost, optimal cost).

    The targeting cost is the cost of z = 1, the optimal cost that of the
    optimal decision; neither depends on the score.
    """
    y = np.asarray(y, dtype=float)
    clv = np.asarray(clv, dtype=float)
    opt_cost = campaign_cost(optimal_decision(y, params, clv), y, params, clv)
    return np.asarray(midpoint(params, clv)), _cost_coefficient(y, params, clv), opt_cost


def smooth_regret_loss(y_hat, terms, slope: float):
    """Smooth regret and its derivative in y_hat, given smooth_regret_terms.

    With g = surrogate(y_hat, m, slope) the loss is coeff*g - opt_cost,
    since the cost is linear in the relaxed decision, and its derivative
    is coeff * (-slope * g * (1 - g)).
    """
    m, coeff, opt_cost = terms
    g = surrogate(y_hat, m, slope)
    return coeff * g - opt_cost, coeff * (-slope * g * (1.0 - g))


def smooth_regret(y, y_hat, params: CampaignParams, clv):
    """Regret with the step decision replaced by its sigmoid relaxation.

    The cost is extended linearly to relaxed decisions in [0, 1], which
    makes the loss continuous and differentiable in y_hat everywhere.
    """
    loss, _ = smooth_regret_loss(y_hat, smooth_regret_terms(y, params, clv), params.slope)
    return _scalar_or_array(loss)


def smooth_regret_grad(y, y_hat, params: CampaignParams, clv):
    """d smooth_regret / d y_hat, in closed form (see smooth_regret_loss)."""
    _, grad = smooth_regret_loss(y_hat, smooth_regret_terms(y, params, clv), params.slope)
    return _scalar_or_array(grad)


def total_profit(decisions, labels, params: CampaignParams, clvs) -> float:
    """Total campaign profit: negative sum of realized costs."""
    decisions = np.asarray(decisions)
    labels = np.asarray(labels)
    clvs = np.asarray(clvs, dtype=float)
    if not (decisions.shape == labels.shape == clvs.shape):
        raise ValueError(
            f"length mismatch: decisions {decisions.shape}, labels {labels.shape}, clvs {clvs.shape}"
        )
    return float(-np.sum(campaign_cost(decisions, labels, params, clvs)))


def optimal_total_profit(labels, params: CampaignParams, clvs) -> float:
    """Profit of the optimal decision vector for known labels."""
    return total_profit(optimal_decision(labels, params, clvs), labels, params, clvs)


def normalized_gap(optimal_cost_sum: float, model_cost_sum: float) -> float:
    """(optimal cost - model cost) / optimal cost, in the cost convention.

    Costs are negative when profit is positive, so 0 means the model
    matched the optimum, 1 means it earned nothing, and values above 1
    mean it lost money.
    """
    if optimal_cost_sum == 0:
        raise ValueError("normalized gap undefined: optimal cost sum is zero")
    return (optimal_cost_sum - model_cost_sum) / optimal_cost_sum + 0.0  # drop any -0.0
