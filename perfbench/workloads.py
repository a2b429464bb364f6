"""The benchmark's workloads: what each runs and why it was chosen.

Every input derives from the workload seed. The grid workloads run
bundled months from ``bundled_specs(seed)`` with the paper's 8 default
methods and 5 incentive values; ``regret_tune_csv`` writes its datasets
to CSV before timing so the CLI loads them through ``load_dataset``.
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = (
    "regret_net",
    "xent_net",
    "logistic",
    "knn",
    "cart",
    "msp_logistic",
    "msp_knn",
    "msp_cart",
)
D_GRID = ("clv/20", "clv/15", "clv/10", "clv/5", "clv/3")

# Three of the 12 bundled months, each with its train split drawn at
# half and its test split at GRID_TEST_SCALE times the bundled size.
# Across seeds the gap metrics vary mostly with the few churners in a
# ~200-row test split, so the test splits are enlarged; the knn fits
# grow with n_train times (n_train + n_test), so halving the train
# splits lets three serial CLI runs fit in about 30 s while three
# months keep the gap metrics about as steady as two full-size ones.
GRID_MONTHS = ("jan", "feb", "mar")
GRID_TRAIN_SCALE = 0.5
GRID_TEST_SCALE = 6

# regret_tune_csv: n_train * 0.8 > 1024, so the CV folds and the final
# fit both train on mini-batches of 128 rows. One CLI run takes ~4 s on
# a 2-core Xeon VM, so a 25 s measurement takes the median of six or so:
# on that shared host single runs vary by up to 40% from one to the next.
CSV_DATASETS = tuple((f"csv_{i}", 1300 + 100 * i, 2000) for i in range(3))
CSV_CV = {"learning_rates": [0.01, 0.03], "epochs": [5, 10], "splits": 2, "seeds": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    methods: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_serial", 1, METHODS),  # knn, SMOTE and per-cell fits
        Workload("grid_jobs2", 2, METHODS),  # the process pool and its load balance
        Workload("regret_tune_csv", 1, ("regret_net",)),  # mini-batch Adam, CV, CSV loading
    )
}
