"""Benchmark protocol: synthetic data, tuning, and the dataset x d x method grid.

Each method pairs a scorer with a decision rule. A scorer is fitted once
per dataset and the fit serves every d value and rule that uses it; only
regret_net, whose loss depends on d, is fitted once per (dataset, d), and
so is every scorer when training drops customers below break-even. A fit
derives its random state from (master seed, dataset index, d index,
method index) of the first grid cell it serves, so results are
reproducible byte for byte no matter how fits are scheduled.
"""

from __future__ import annotations

import csv
import numbers
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .campaign import (
    CampaignParams,
    break_even_clv,
    midpoint,
    normalized_gap,
    optimal_total_profit,
    prescribe,
    total_profit,
)
from .data import Dataset, assign_segments, standardize
from .metrics import accuracy, msp, targeted_fraction
from .models import (
    CartConfig,
    TrainConfig,
    cart_scores,
    default_hidden,
    fit_cart,
    fit_logistic,
    forward_batch,
    init_mlp,
    knn_scores,
    mean_loss,
    train,
    train_epochs,
)
from .smote import SmoteConfig, smote_balance
from .stats import comparison_summary, rank_methods

__all__ = [
    "SyntheticSpec",
    "generate_synthetic",
    "bundled_specs",
    "monte_carlo_cv",
    "RunConfig",
    "CellResult",
    "BenchmarkReport",
    "resolve_d",
    "run_benchmark",
    "benchmark_summary",
    "sensitivity_sweep",
    "METHODS",
    "DEFAULT_METHODS",
]


# what a field annotated with each type must hold; a bool is neither an int nor a float
_HOLDS = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    # the bound also rules out NaN, +-inf and ints beyond the float range
    "float": ("a finite number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _check_field_types(obj) -> None:
    """Raise ValueError naming the first dataclass field whose value its annotation
    rules out: "T | None" also admits None, "tuple[T, ...]" is a tuple of T entries."""
    for fld in fields(obj):
        kind, values = fld.type.removesuffix(" | None"), [getattr(obj, fld.name)]
        if kind.startswith("tuple[") and kind.endswith(", ...]"):
            if not isinstance(values[0], tuple):
                raise ValueError(f"{fld.name} must be a tuple, got {values[0]!r}")
            kind, values = kind[len("tuple["):-len(", ...]")], values[0]
        elif kind != fld.type and values[0] is None:
            continue
        what, holds = _HOLDS.get(kind, ("", lambda v: True))
        for value in values:
            if not holds(value):
                raise ValueError(f"{fld.name} must be {what}, got {value!r}")


def _first_repeat(values: Sequence):
    """The first entry equal to an earlier one, or None."""
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic churn dataset with individual CLVs.

    Features are unit Gaussians shifted by +-signal/2 along a random
    direction depending on the label. CLVs are log-normal with the given
    mean and log-space dispersion; clv_churn_corr in [-1, 1] correlates
    the CLV draw with the churn indicator (positive: churners tend to be
    the more valuable customers).
    """

    name: str
    n_train: int
    n_test: int
    n_features: int = 24
    churn_rate: float = 0.18
    clv_mean: float = 85.0
    clv_sigma: float = 0.8
    signal: float = 1.2
    clv_churn_corr: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_train < 10 or self.n_test < 10:
            raise ValueError("n_train and n_test must be >= 10")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if not 0 < self.churn_rate < 1:
            raise ValueError(f"churn_rate must lie in (0, 1), got {self.churn_rate}")
        if not self.clv_mean > 0:
            raise ValueError("clv_mean must be > 0")
        if self.clv_sigma < 0 or self.signal < 0:
            raise ValueError("clv_sigma and signal must be >= 0")
        if not -1 <= self.clv_churn_corr <= 1:
            raise ValueError("clv_churn_corr must lie in [-1, 1]")


def _draw_split(rng: np.random.Generator, spec: SyntheticSpec, n: int, direction: np.ndarray):
    rate, sigma, corr = spec.churn_rate, spec.clv_sigma, spec.clv_churn_corr
    for _ in range(100):
        churn = rng.random(n) < rate
        if 0 < churn.sum() < n:
            break
    else:
        raise ValueError(f"spec {spec.name!r}: could not draw both classes at rate {rate}")
    y = np.where(churn, 0, 1).astype(np.int64)

    X = rng.standard_normal((n, spec.n_features)) + np.where(churn, -0.5, 0.5)[:, None] * (
        spec.signal * direction
    )

    # standardized churn indicator drives the CLV-churn dependence
    s = (churn.astype(float) - rate) / np.sqrt(rate * (1 - rate))
    z = corr * s + np.sqrt(1 - corr**2) * rng.standard_normal(n)
    # choose mu so that E[clv] equals clv_mean exactly under this mixture
    s1 = (1 - rate) / np.sqrt(rate * (1 - rate))
    s0 = -rate / np.sqrt(rate * (1 - rate))
    moment = (
        rate * np.exp(sigma * corr * s1) + (1 - rate) * np.exp(sigma * corr * s0)
    ) * np.exp(sigma**2 * (1 - corr**2) / 2)
    mu = np.log(spec.clv_mean) - np.log(moment)
    clv = np.exp(mu + sigma * z)
    return X, y, clv


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Draw (train, test) datasets from one spec, reproducibly per seed."""
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal(spec.n_features)
    direction /= np.linalg.norm(direction)
    schema = tuple(f"f{i + 1}" for i in range(spec.n_features))
    parts = []
    for tag, n in (("train", spec.n_train), ("test", spec.n_test)):
        X, y, clv = _draw_split(rng, spec, n, direction)
        parts.append(
            Dataset(name=f"{spec.name}_{tag}", schema=schema, features=X, labels=y, clvs=clv)
        )
    return parts[0], parts[1]


# Sizes, churn rates and mean CLVs of the 12 bundled monthly specs.
_MONTHLY = (
    ("jan", 786, 197, 0.1699, 85.00),
    ("feb", 792, 198, 0.1697, 85.00),
    ("mar", 792, 198, 0.1717, 88.20),
    ("apr", 818, 205, 0.1632, 88.40),
    ("may", 844, 211, 0.1725, 86.80),
    ("jun", 889, 223, 0.1835, 91.20),
    ("jul", 924, 231, 0.1974, 91.00),
    ("aug", 930, 233, 0.1823, 92.20),
    ("sep", 938, 235, 0.1935, 90.60),
    ("oct", 961, 241, 0.2038, 87.40),
    ("nov", 972, 244, 0.2146, 87.20),
    ("dec", 962, 241, 0.1787, 89.40),
)


def bundled_specs(master_seed: int = 0) -> list[SyntheticSpec]:
    """Twelve monthly synthetic specs sized like a year of customer bases."""
    seeds = np.random.SeedSequence(master_seed).generate_state(len(_MONTHLY))
    return [
        SyntheticSpec(
            name=name,
            n_train=n_train,
            n_test=n_test,
            churn_rate=rate,
            clv_mean=clv_mean,
            clv_churn_corr=0.25,
            seed=int(seed),
        )
        for (name, n_train, n_test, rate, clv_mean), seed in zip(_MONTHLY, seeds)
    ]


def monte_carlo_cv(
    data: Dataset,
    grid: Sequence[tuple[float, int]],
    params: CampaignParams,
    base: TrainConfig | None = None,
    hidden: int | None = None,
    splits: int = 5,
    n_seeds: int = 10,
    seed: int = 0,
) -> TrainConfig:
    """Pick (learning rate, epochs) by repeated random 80/20 validation.

    Each grid cell is scored by the mean held-out loss over `splits`
    random splits times `n_seeds` training seeds (splits and seeds are
    shared across cells, so the comparison is paired). The cells of one
    learning rate share their epoch prefix: each (split, seed) is trained
    once, to the largest epoch count of that learning rate, and scored
    after every epoch count in the grid along the way. Ties break toward
    the smaller learning rate, then fewer epochs. Training failures are
    excluded from the mean, counted, and reported via a warning; a run
    that fails in epoch e fails the cells with e or more epochs.
    """
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    if splits < 1 or n_seeds < 1:
        raise ValueError(f"splits and n_seeds must be >= 1, got {splits} and {n_seeds}")
    base = base if base is not None else TrainConfig()
    epochs_by_lr: dict[float, list[int]] = {}
    for lr, epochs in grid:
        cfg = replace(base, learning_rate=lr, epochs=int(epochs))  # checks the grid point
        epochs_by_lr.setdefault(lr, []).append(cfg.epochs)
    if hidden is None:
        hidden = default_hidden(data.n_features)
    rng = np.random.default_rng(seed)
    n = len(data)
    n_val = max(1, round(0.2 * n))
    splits_idx = []
    for _ in range(splits):
        for _ in range(100):
            perm = rng.permutation(n)
            if len(np.unique(data.labels[perm[: n - n_val]])) == 2:
                splits_idx.append(perm)
                break
        else:
            raise ValueError("could not draw a two-class training part")
    run_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(splits * n_seeds)]

    failures = 0
    losses: dict[tuple[float, int], list[float]] = {}
    for lr, epoch_counts in epochs_by_lr.items():
        cfg = replace(base, learning_rate=lr, epochs=max(epoch_counts))
        for si, perm in enumerate(splits_idx):
            tr = data.subset(perm[: n - n_val])
            va = data.subset(perm[n - n_val :])
            for s in range(n_seeds):
                run_seed = run_seeds[si * n_seeds + s]
                init = init_mlp(data.n_features, hidden, seed=run_seed)
                done = 0
                try:
                    for model in train_epochs(init, tr, params, replace(cfg, seed=run_seed)):
                        done += 1
                        if done in epoch_counts:
                            losses.setdefault((lr, done), []).append(mean_loss(model, va, params, cfg.loss))
                except RuntimeError:
                    failures += sum(e > done for e in epoch_counts)
    best: tuple[float, float, int] | None = None  # (score, lr, epochs)
    for lr, epochs in sorted(grid):
        cell = losses.get((lr, int(epochs)))
        score = float(np.mean(cell)) if cell else np.inf
        if best is None or score < best[0]:
            best = (score, lr, int(epochs))
    if failures:
        warnings.warn(f"{failures} training run(s) failed during cross-validation", stacklevel=2)
    return replace(base, learning_rate=best[1], epochs=best[2])


# method -> (scorer, decision rule); the scorers are fitted by _SCORERS
_METHOD_TABLE = {
    "regret_net": ("regret_net", "midpoint"),
    "xent_net": ("xent_net", "threshold"),
    "logistic": ("logistic", "threshold"),
    "knn": ("knn", "threshold"),
    "cart": ("cart", "threshold"),
    "msp_logistic": ("logistic", "msp"),
    "msp_knn": ("knn", "msp"),
    "msp_cart": ("cart", "msp"),
    "oracle": ("oracle", "midpoint"),
    "constant": ("constant", "threshold"),
}
METHODS = tuple(_METHOD_TABLE)

# the compared methods; oracle and constant are harness checks
DEFAULT_METHODS = METHODS[:8]

DEFAULT_D_GRID = ("clv/20", "clv/15", "clv/10", "clv/5", "clv/3")


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run needs beyond the datasets themselves."""

    f: float = 1.36
    gamma: float = 0.3
    slope: float = 10.0
    d_grid: tuple[str | float, ...] = DEFAULT_D_GRID
    methods: tuple[str, ...] = DEFAULT_METHODS
    q: int = 2
    hidden: int | None = None
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int | None = None
    cv_learning_rates: tuple[float, ...] = ()  # nonempty (with cv_epochs) enables tuning
    cv_epochs: tuple[int, ...] = ()
    cv_splits: int = 5
    cv_seeds: int = 10
    smote_k: int = 5
    smote_ratio: float = 1.0
    knn_k: int = 5
    cart_max_depth: int = 6
    cart_min_leaf: int = 5
    class_threshold: float = 0.5
    regret_net_accuracy: str = "threshold"  # or "midpoint": score decisions per customer
    drop_below_break_even: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        _check_field_types(self)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown method(s) {unknown}; available: {METHODS}")
        if self.regret_net_accuracy not in ("threshold", "midpoint"):
            raise ValueError("regret_net_accuracy must be 'threshold' or 'midpoint'")
        if not self.methods or not self.d_grid:
            raise ValueError("methods and d_grid must be nonempty")
        # cells and summary.json are keyed by method name and d label
        for key, labels in (("methods", self.methods), ("d_grid", [str(e) for e in self.d_grid])):
            repeated = _first_repeat(labels)
            if repeated is not None:
                raise ValueError(f"{key} lists {repeated!r} more than once")
        for name, low in (("q", 1), ("knn_k", 1), ("cv_splits", 1), ("cv_seeds", 1), ("hidden", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        CartConfig(self.cart_max_depth, self.cart_min_leaf)
        SmoteConfig(self.smote_k, self.smote_ratio)
        TrainConfig(self.learning_rate, self.epochs, self.batch_size)
        if bool(self.cv_learning_rates) != bool(self.cv_epochs):
            raise ValueError("cv_learning_rates and cv_epochs must both be given or both be empty")
        for lr, epochs in self.cv_grid:
            try:
                TrainConfig(lr, epochs)
            except ValueError as exc:
                raise ValueError(f"cv grid point (learning_rate={lr}, epochs={epochs}): {exc}") from None

    @property
    def cv_grid(self) -> list[tuple[float, int]]:
        """The (learning rate, epochs) points that Monte Carlo CV compares; empty: no tuning."""
        return [(lr, e) for lr in self.cv_learning_rates for e in self.cv_epochs]

    def campaign(self, d: float) -> CampaignParams:
        return CampaignParams(f=self.f, d=d, gamma=self.gamma, slope=self.slope)


def resolve_d(entry, train_clv_mean: float) -> float:
    """Turn a d-grid entry into euros: a number, or 'clv/x' for mean/x.

    Raises ValueError unless the entry parses and d is finite and > 0.
    """
    try:
        if isinstance(entry, bool):
            raise ValueError
        if not isinstance(entry, str):
            d = float(entry)
        elif entry.strip().lower().startswith("clv/"):
            d = train_clv_mean / float(entry.strip()[4:])
        else:
            raise ValueError
    except ZeroDivisionError:
        d = np.inf
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"d entry {entry!r} must be a number or look like 'clv/20'") from None
    if not (d > 0 and np.isfinite(d)):
        raise ValueError(f"d entry {entry!r} gives d = {d}; d must be finite and > 0")
    return d


@dataclass(frozen=True)
class CellResult:
    dataset: str
    d_label: str
    d: float
    method: str
    profit: float = np.nan
    accuracy: float = np.nan
    gap: float = np.nan
    eta: float = np.nan
    optimal_profit: float = np.nan
    status: str = "ok"
    error: str = ""


def _cell_seeds(master_seed: int, di: int, dj: int, mi: int) -> tuple[int, int, int]:
    state = np.random.SeedSequence([master_seed, di, dj, mi]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _threshold_decisions(scores, t):
    return (np.asarray(scores) <= t).astype(np.int64)


def _msp_decisions(train_scores, train_s: Dataset, test_scores, test_clvs, q, params):
    """Per-segment thresholds fitted on train, carried to test by CLV edges."""
    result = msp(train_scores, train_s.labels, train_s.clvs, q, params)
    seg = assign_segments(test_clvs, result.edges)
    return _threshold_decisions(test_scores, result.thresholds[seg])


def _fit_net(data: Dataset, cfg: RunConfig, params: CampaignParams, seeds, loss: str):
    tc = TrainConfig(cfg.learning_rate, cfg.epochs, cfg.batch_size, loss=loss, seed=seeds[1])
    if loss == "smooth-regret" and cfg.cv_grid:
        best = monte_carlo_cv(
            data, cfg.cv_grid, params, base=tc, hidden=cfg.hidden,
            splits=cfg.cv_splits, n_seeds=cfg.cv_seeds, seed=seeds[2],
        )
        tc = replace(best, seed=seeds[1])
    hidden = cfg.hidden if cfg.hidden is not None else default_hidden(data.n_features)
    model = train(init_mlp(data.n_features, hidden, seed=tc.seed), data, params, tc)
    return lambda ds: forward_batch(model, ds.features)


def _fit_logistic(data: Dataset, cfg: RunConfig, params: CampaignParams, seeds):
    model = fit_logistic(data)
    return lambda ds: model.score_batch(ds.features)


def _fit_knn(data: Dataset, cfg: RunConfig, params: CampaignParams, seeds):
    k = min(cfg.knn_k, len(data))
    return lambda ds: knn_scores(data, ds.features, k)


def _fit_cart(data: Dataset, cfg: RunConfig, params: CampaignParams, seeds):
    tree = fit_cart(data, CartConfig(cfg.cart_max_depth, cfg.cart_min_leaf))
    return lambda ds: cart_scores(tree, ds.features)


# scorer -> (trains on the SMOTE-balanced split, fit). A fit takes the
# training split, cfg, the campaign and the (smote, train, cv) seeds, and
# returns a function that scores a split. Only regret_net reads d.
_SCORERS = {
    "regret_net": (False, partial(_fit_net, loss="smooth-regret")),
    "xent_net": (True, partial(_fit_net, loss="cross-entropy")),
    "logistic": (True, _fit_logistic),
    "knn": (True, _fit_knn),
    "cart": (True, _fit_cart),
    "oracle": (False, lambda *_: lambda ds: ds.labels.astype(float)),
    "constant": (False, lambda *_: lambda ds: np.full(len(ds), 0.5)),
}


def _failed(name, d_label, d, method, exc: Exception) -> CellResult:
    return CellResult(name, d_label, d, method, status="failed", error=f"{type(exc).__name__}: {exc}")


def _run_task(task) -> list[CellResult]:
    """Fit one scorer, then run every cell it serves; see _plan."""
    name, train_s, test_s, scorer, cfg, seeds, cells = task
    try:
        params = cfg.campaign(cells[0][2])
        balance, fit = _SCORERS[scorer]
        data = train_s
        if balance:
            smote = SmoteConfig(k_neighbors=cfg.smote_k, ratio=cfg.smote_ratio, seed=seeds[0])
            data = smote_balance(train_s, smote)
        score = fit(data, cfg, params, seeds)
        test_scores = score(test_s)
        train_scores = score(train_s) if any(_METHOD_TABLE[m][1] == "msp" for *_, m in cells) else None
    except Exception as exc:  # a failed fit fails exactly the cells it serves
        return [_failed(name, *cell[1:], exc) for cell in cells]
    return [_run_cell(name, cell, cfg, train_s, train_scores, test_s, test_scores) for cell in cells]


def _run_cell(name, cell, cfg: RunConfig, train_s, train_scores, test_s, test_scores) -> CellResult:
    """Apply one cell's decision rule to the fitted scores and measure it."""
    _, d_label, d, method = cell
    try:
        params = cfg.campaign(d)
        scorer, rule = _METHOD_TABLE[method]
        # accuracy judges `classified`, which for a midpoint rule is the
        # class-threshold call unless regret_net_accuracy is "midpoint"
        decisions = classified = _threshold_decisions(test_scores, cfg.class_threshold)
        if rule == "msp":
            decisions = classified = _msp_decisions(
                train_scores, train_s, test_scores, test_s.clvs, cfg.q, params
            )
        elif rule == "midpoint":
            decisions = prescribe(test_scores, midpoint(params, test_s.clvs))
            if scorer == "regret_net" and cfg.regret_net_accuracy == "midpoint":
                classified = decisions
        profit = total_profit(decisions, test_s.labels, params, test_s.clvs)
        optimal = optimal_total_profit(test_s.labels, params, test_s.clvs)
        gap = normalized_gap(-optimal, -profit) if optimal != 0 else np.nan
        acc = accuracy(classified, test_s.labels)
        return CellResult(name, d_label, d, method, profit, acc, gap, targeted_fraction(decisions), optimal)
    except Exception as exc:  # isolate the cell, keep the run going
        return _failed(name, d_label, d, method, exc)


@dataclass(frozen=True)
class BenchmarkReport:
    cells: tuple[CellResult, ...]

    @property
    def failed(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.status != "ok")

    def profit_matrix(self, d_label: str, methods, datasets) -> np.ndarray:
        """(method x dataset) test profits for one d value; NaN if missing."""
        index = {(c.dataset, c.method): c for c in self.cells if c.d_label == d_label}
        out = np.full((len(methods), len(datasets)), np.nan)
        for i, m in enumerate(methods):
            for j, ds in enumerate(datasets):
                cell = index.get((ds, m))
                if cell is not None and cell.status == "ok":
                    out[i, j] = cell.profit
        return out

    def to_csv(self, path: str | Path) -> Path:
        columns = ("dataset", "d_label", "d", "method", "profit", "accuracy", "gap", "eta", "status")
        return write_table_csv([{k: getattr(c, k) for k in columns} for c in self.cells], path)


def _fmt(x) -> str:
    x = float(x)
    if np.isnan(x):
        return ""
    return repr(x)


def _plan(datasets: Sequence[tuple[str, Dataset, Dataset]], cfg: RunConfig) -> list[tuple]:
    """Standardize every dataset, resolve its d grid and group the cells by their fit.

    A task is (name, train, test, scorer, cfg, seeds, cells), with both
    splits standardized and the training split cut to the customers above
    break-even under drop_below_break_even; each cell is (row, d_label, d,
    method). regret_net, and every scorer under drop_below_break_even, is
    fitted per (dataset, d), any other scorer per dataset, with the seeds
    of the first cell it serves in row order.

    Raises ValueError naming the dataset when a split does not standardize,
    a d entry gives no campaign, or a d leaves no training customer (fewer
    than q with an MSP method); raises it naming the name when two datasets
    share one, since cells are keyed by it.
    """
    repeated = _first_repeat([name for name, _, _ in datasets])
    if repeated is not None:
        raise ValueError(f"dataset name {repeated!r} appears more than once")
    uses_msp = any(_METHOD_TABLE[m][1] == "msp" for m in cfg.methods)
    tasks: dict[tuple, tuple] = {}
    row = 0
    for di, (name, train_ds, test_ds) in enumerate(datasets):
        clv_mean = float(train_ds.clvs.mean())
        try:
            train_s, test_s = standardize(train_ds, test_ds)
        except ValueError as exc:
            raise ValueError(f"dataset {name!r}: {exc}") from None
        for dj, entry in enumerate(cfg.d_grid):
            try:
                d = resolve_d(entry, clv_mean)
                params = cfg.campaign(d)  # checks f, gamma and slope too
            except (TypeError, ValueError) as exc:
                raise ValueError(f"dataset {name!r}: {exc}") from None
            train_d, where = train_s, ""
            if cfg.drop_below_break_even:
                keep = np.flatnonzero(train_s.clvs > break_even_clv(params))
                where = f" above break-even CLV at d = {entry!r}"
                if keep.size == 0:
                    raise ValueError(f"dataset {name!r}: no training customers{where}")
                train_d = train_s.subset(keep)
            if uses_msp and len(train_d) < cfg.q:
                n = len(train_d)
                raise ValueError(f"dataset {name!r}: q must be at most the {n} training customers{where}, got {cfg.q}")
            for mi, method in enumerate(cfg.methods):
                scorer = _METHOD_TABLE[method][0]
                per_d = scorer == "regret_net" or cfg.drop_below_break_even
                key = (di, dj if per_d else None, scorer)
                if key not in tasks:
                    seeds = _cell_seeds(cfg.seed, di, dj, mi)
                    tasks[key] = (name, train_d, test_s, scorer, cfg, seeds, [])
                tasks[key][-1].append((row, str(entry), d, method))
                row += 1
    return list(tasks.values())


def run_benchmark(
    datasets: Sequence[tuple[str, Dataset, Dataset]],
    cfg: RunConfig,
    jobs: int = 1,
) -> BenchmarkReport:
    """Evaluate every (dataset, d, method) cell; failures never abort the run.

    Each fit is one job serving one or more cells, run in a pool of
    min(jobs, fits) processes when that exceeds 1; per-fit seeding keeps
    the report identical either way.
    Raises ValueError, before any fit runs, when _plan rejects a dataset.
    """
    tasks = _plan(datasets, cfg)
    workers = min(jobs, len(tasks))  # the pool starts every worker at once, used or not
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    by_row = {row: cell for task, out in zip(tasks, results) for (row, *_), cell in zip(task[-1], out)}
    return BenchmarkReport(cells=tuple(by_row[row] for row in range(len(by_row))))


def benchmark_summary(report: BenchmarkReport, cfg: RunConfig, datasets_names, alpha: float = 0.05) -> dict:
    """Rank methods and run the comparison tests, separately per d value.

    Statistical blocks that cannot be computed (failed cells, degenerate
    statistics, k < 3) carry a note instead of aborting the summary.
    """
    methods = list(cfg.methods)
    summary: dict = {
        "methods": methods,
        "datasets": list(datasets_names),
        "failed_cells": [
            {"dataset": c.dataset, "d_label": c.d_label, "method": c.method, "error": c.error}
            for c in report.failed
        ],
        "per_d": {},
    }
    for entry in cfg.d_grid:
        d_label = str(entry)
        profits = report.profit_matrix(d_label, methods, datasets_names)
        if np.isnan(profits).any():
            summary["per_d"][d_label] = {"note": "skipped: missing or failed cells"}
        else:
            summary["per_d"][d_label] = comparison_summary(rank_methods(profits, methods, datasets_names), alpha)
    return summary


def sensitivity_sweep(report: BenchmarkReport, cfg: RunConfig) -> dict[str, list[dict]]:
    """Plot-ready tables: profit vs d, gap vs d, and per-dataset (eta, profit).

    Means ignore failed cells; a d value with no successful cell for a
    method yields no row.
    """
    methods = list(cfg.methods)
    by_method_d: dict[tuple[str, str], list[CellResult]] = {}
    for c in report.cells:
        if c.status == "ok":
            by_method_d.setdefault((c.method, c.d_label), []).append(c)

    profit_rows, gap_rows, eta_rows = [], [], []
    for entry in cfg.d_grid:
        d_label = str(entry)
        for m in methods:
            cells = by_method_d.get((m, d_label), [])
            if not cells:
                continue
            d_mean = float(np.mean([c.d for c in cells]))
            profit_rows.append(
                {
                    "d_label": d_label,
                    "d_mean": d_mean,
                    "method": m,
                    "mean_profit": float(np.mean([c.profit for c in cells])),
                }
            )
            gaps = [c.gap for c in cells if not np.isnan(c.gap)]
            if gaps:
                gap_rows.append(
                    {
                        "d_label": d_label,
                        "d_mean": d_mean,
                        "method": m,
                        "mean_gap": float(np.mean(gaps)),
                    }
                )
            for c in cells:
                eta_rows.append(
                    {
                        "dataset": c.dataset,
                        "d_label": d_label,
                        "d": c.d,
                        "method": m,
                        "eta": c.eta,
                        "profit": c.profit,
                    }
                )
    return {"profit_vs_d": profit_rows, "gap_vs_d": gap_rows, "eta_profit_vs_d": eta_rows}


def write_table_csv(rows: list[dict], path: str | Path) -> Path:
    """Write a list of homogeneous dicts as CSV with repr-stable floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        if rows:
            writer = csv.writer(fh)
            writer.writerow(list(rows[0]))
            for row in rows:
                writer.writerow([_fmt(v) if isinstance(v, float) else str(v) for v in row.values()])
    return path
