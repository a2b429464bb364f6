"""Nonparametric comparison of methods across datasets.

Rank methods per dataset by profit, test overall rank disagreement with
the Friedman statistic under the Iman-Davenport F correction, then compare
every method against the top-ranked one with pairwise Nemenyi z tests
judged row by row against Holm thresholds alpha/(j-1).

The normal CDF comes from the stdlib complementary error function and the
F-distribution tail from a regularized-incomplete-beta continued fraction,
so no statistics dependency is needed; both are accurate well past the
1e-7 needed for four-decimal p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankTable",
    "normal_cdf",
    "f_sf",
    "average_ranks",
    "rank_methods",
    "friedman_iman_davenport",
    "nemenyi_z",
    "holm",
    "compare_methods",
    "comparison_summary",
]


def _first_repeat(values: list | tuple) -> int | None:
    """Index of the first entry equal to an earlier one, or None."""
    return next((i for i, v in enumerate(values) if v in values[:i]), None)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc (abs error below 1e-15)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even step, then the odd one; convergence is judged on the odd step's factor
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(x: float, d1: float, d2: float) -> float:
    """Survival function P(F > x) of the F(d1, d2) distribution."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0:
        return 1.0
    return _betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Descending ranks of a 1-D array (rank 1 = largest), ties averaged."""
    _, group, counts = np.unique(-np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    # a group of c tied values ending at rank e shares the mean rank e - (c - 1)/2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


@dataclass(frozen=True)
class RankTable:
    """Per-dataset profit ranks for k methods over N datasets."""

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    profits: np.ndarray  # (k, N)
    ranks: np.ndarray  # (k, N); each column sums to k(k+1)/2

    @property
    def avg_ranks(self) -> np.ndarray:
        return self.ranks.mean(axis=1)

    @property
    def avg_profits(self) -> np.ndarray:
        return self.profits.mean(axis=1)

    def best_method(self) -> int:
        """Index of the lowest average rank (ties to the first listed)."""
        return int(np.argmin(self.avg_ranks))


def rank_methods(profits, methods, datasets) -> RankTable:
    """Rank methods within each dataset (1 = most profitable, ties averaged).

    Raises ValueError on a repeated method or dataset name: the results
    are keyed by method name, and each dataset counts once.
    """
    profits = np.asarray(profits, dtype=float)
    k, n = len(methods), len(datasets)
    for kind, names in (("method", methods), ("dataset", datasets)):
        repeated = _first_repeat(names)
        if repeated is not None:
            raise ValueError(f"{kind} name {names[repeated]!r} appears more than once")
    if profits.shape != (k, n):
        raise ValueError(f"profit matrix must be (methods x datasets) = ({k}, {n}), got {profits.shape}")
    if not np.all(np.isfinite(profits)):
        raise ValueError("profit matrix contains missing or non-finite cells")
    ranks = np.column_stack([average_ranks(profits[:, j]) for j in range(n)])
    return RankTable(methods=tuple(methods), datasets=tuple(datasets), profits=profits, ranks=ranks)


def friedman_iman_davenport(avg_ranks, n_datasets: int) -> dict:
    """Friedman rank test with the Iman-Davenport F correction, as the JSON
    block {"chi2", "f_stat", "p_value", "df": [df1, df2]}.

    chi2 = 12N/(k(k+1)) * (sum R_j^2 - k(k+1)^2/4); the corrected statistic
    F = (N-1) chi2 / (N(k-1) - chi2) follows F(k-1, (k-1)(N-1)) under the
    null of equal average ranks.
    """
    ranks = np.asarray(avg_ranks, dtype=float)
    k = ranks.size
    n = int(n_datasets)
    if k < 3:
        raise ValueError(f"need at least 3 methods, got {k}")
    if n < 2:
        raise ValueError(f"need at least 2 datasets, got {n}")
    chi2 = 12.0 * n / (k * (k + 1)) * (float(np.sum(ranks**2)) - k * (k + 1) ** 2 / 4.0)
    denom = n * (k - 1) - chi2
    if denom <= 0:
        raise ValueError(
            "degenerate Iman-Davenport denominator (perfectly consistent ranks); F is unbounded"
        )
    f_stat = (n - 1) * chi2 / denom
    df1, df2 = k - 1, (k - 1) * (n - 1)
    return {"chi2": float(chi2), "f_stat": float(f_stat), "p_value": f_sf(f_stat, df1, df2), "df": [df1, df2]}


def nemenyi_z(rank_best: float, rank_other: float, n_datasets: int, k_methods: int) -> tuple[float, float]:
    """Pairwise z statistic and two-sided p for a rank difference.

    z = (R_other - R_best) / sqrt(k(k+1)/(6N)); p = 2(1 - Phi(z)), capped
    at 1.
    """
    se = math.sqrt(k_methods * (k_methods + 1) / (6.0 * n_datasets))
    z = (rank_other - rank_best) / se
    return z, min(1.0, 2.0 * (1.0 - normal_cdf(z)))


def holm(p_values, alpha: float = 0.05) -> list[tuple[float, bool]]:
    """Judge rank-ordered p-values against thresholds alpha/(j-1).

    p_values arrive ordered by average rank (best-ranked comparison
    first); entry j (1-based) gets threshold alpha/j shifted by one, i.e.
    comparison j = 2..k uses alpha/(j-1). Returns (threshold, reject)
    per comparison.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return [(alpha / j, bool(p < alpha / j)) for j, p in enumerate(p_values, start=1)]


def compare_methods(table: RankTable, alpha: float = 0.05) -> dict:
    """Full post-hoc protocol: Nemenyi z vs the top-ranked method + Holm.

    Returns the JSON block {"best", "alpha", "comparisons"}, one comparison
    per other method in ascending-rank order. Row j (j = 2..k) is judged
    against its own threshold alpha/(j-1): each row is judged on its own,
    with no stop at the first non-rejection.
    """
    avg = table.avg_ranks
    best = table.best_method()
    others = sorted((i for i in range(len(table.methods)) if i != best), key=lambda i: avg[i])
    tests = [nemenyi_z(avg[best], avg[i], len(table.datasets), len(table.methods)) for i in others]
    judged = holm([p for _, p in tests], alpha)
    comparisons = [
        {"method": table.methods[i], "avg_rank": float(avg[i]), "z": float(z), "p_value": float(p),
         "threshold": threshold, "outcome": "reject" if reject else "not reject"}
        for i, (z, p), (threshold, reject) in zip(others, tests, judged)
    ]
    return {"best": table.methods[best], "alpha": alpha, "comparisons": comparisons}


def comparison_summary(table: RankTable, alpha: float = 0.05) -> dict:
    """JSON-ready average ranks and profits, Friedman test and Holm table.

    A Friedman test that cannot be computed (k < 3, perfectly consistent
    ranks) carries a note instead of its statistics.
    """
    summary: dict = {
        "avg_ranks": {m: float(r) for m, r in zip(table.methods, table.avg_ranks)},
        "avg_profits": {m: float(p) for m, p in zip(table.methods, table.avg_profits)},
    }
    try:
        summary["friedman"] = friedman_iman_davenport(table.avg_ranks, len(table.datasets))
    except ValueError as exc:
        summary["friedman"] = {"note": str(exc)}
    summary["holm"] = compare_methods(table, alpha)
    return summary
