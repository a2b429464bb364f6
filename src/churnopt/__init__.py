"""Profit-driven churn prevention toolkit.

Campaign-cost math with individual customer lifetime values, a
regret-trained neural scorer with classic baselines, empirical profit
metrics (MP/MSP), SMOTE, and a reproducible benchmark harness with
nonparametric comparison tests.
"""

from .campaign import (
    CampaignParams,
    break_even_clv,
    campaign_cost,
    midpoint,
    normalized_gap,
    optimal_decision,
    optimal_total_profit,
    prescribe,
    regret,
    smooth_regret,
    smooth_regret_grad,
    surrogate,
    total_profit,
)
from .data import Dataset, load_dataset, quantile_segments, save_dataset, standardize
from .experiments import (
    BenchmarkReport,
    RunConfig,
    SyntheticSpec,
    bundled_specs,
    generate_synthetic,
    monte_carlo_cv,
    run_benchmark,
    sensitivity_sweep,
)
from .metrics import MspResult, accuracy, mp, msp, targeted_fraction
from .models import Mlp, TrainConfig, cart_scores, fit_cart, fit_logistic, forward_batch, init_mlp, knn_scores, train
from .smote import SmoteConfig, smote_balance
from .stats import RankTable, compare_methods, friedman_iman_davenport, holm, nemenyi_z, rank_methods

__version__ = "0.1.0"
