"""Benchmark protocol: synthetic data, tuning, and the dataset x d x method grid.

Each method pairs a scorer with a decision rule. A scorer is fitted once
per dataset and the fit serves every d value and rule that uses it, or
once per (dataset, d) when training drops customers below break-even or
the fit reads d, as a net's does when its loss reads the campaign; a net
scorer trains its nets as one stack. A fit, and each net of a stack,
derives its random state from (master seed, dataset index, d index,
method index) of the first grid cell it serves, so results are
reproducible byte for byte no matter how fits are scheduled.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from ._settings import check_settings, config_key, setting
from .campaign import (
    CampaignParams,
    _cost_coefficient,
    break_even_clv,
    midpoint,
    normalized_gap,
    optimal_total_profit,
    prescribe,
    total_profit,
)
from .data import Dataset, assign_segments, standardize, write_csv
from .metrics import accuracy, msp, targeted_fraction
from .models import (
    _LOSSES,
    CartConfig,
    StackSlice,
    TrainConfig,
    cart_scores,
    default_hidden,
    fit_cart,
    fit_logistic,
    forward_batch,
    init_mlp,
    knn_scores,
    mean_loss,
    train_stack,
)
from .smote import SmoteConfig, smote_balance
from .stats import _first_repeat, comparison_summary, rank_methods

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
    n_train: int = setting(ge=10)
    n_test: int = setting(ge=10)
    n_features: int = setting(24, ge=1)
    churn_rate: float = setting(0.18, gt=0, lt=1)
    clv_mean: float = setting(85.0, gt=0)
    clv_sigma: float = setting(0.8, ge=0)
    signal: float = setting(1.2, ge=0)
    clv_churn_corr: float = setting(0.0, ge=-1, le=1)
    seed: int = setting(0, ge=0)

    def __post_init__(self) -> None:
        check_settings(self)


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
    learning_rates: Sequence[float],
    epochs: Sequence[int],
    params: CampaignParams,
    base: TrainConfig | None = None,
    hidden: int | None = None,
    splits: int = 5,
    n_seeds: int = 10,
    seed: int = 0,
) -> TrainConfig:
    """Pick (learning rate, epochs) from learning_rates x epochs by repeated random 80/20 validation.

    Each grid cell is scored by the mean held-out loss over `splits`
    random splits times `n_seeds` training seeds (splits and seeds are
    shared across cells, so the comparison is paired). The cells of one
    learning rate share their epoch prefix: each (learning rate, split,
    seed) run is one slice of a single training stack, trained to the
    largest epoch count and scored after every epoch count along the
    way. Ties break toward the smaller learning rate, then fewer epochs.
    Training failures are excluded from the mean, counted, and reported
    via a warning; a run that fails in epoch e fails the cells with e or
    more epochs.

    Raises ValueError on an empty or repeating list, an entry that
    TrainConfig refuses, or fewer than one split or seed.
    """
    base = base if base is not None else TrainConfig()
    # TrainConfig's own rules check each entry, so a count converts to int only once it is an integer
    rates = [replace(base, learning_rate=lr).learning_rate for lr in learning_rates]
    counts = [int(replace(base, epochs=e).epochs) for e in epochs]
    for name, values in (("learning_rates", rates), ("epochs", counts)):
        if not values:
            raise ValueError(f"{name} must be nonempty")
        repeated = _first_repeat(values)
        if repeated is not None:
            raise ValueError(f"{name} lists {values[repeated]} more than once")
    if splits < 1 or n_seeds < 1:
        raise ValueError(f"splits and n_seeds must be >= 1, got {splits} and {n_seeds}")
    if hidden is None:
        hidden = default_hidden(data.n_features)
    rng = np.random.default_rng(seed)
    n = len(data)
    n_val = max(1, round(0.2 * n))
    splits_idx = []
    for _ in range(splits):
        for _ in range(100):
            perm = rng.permutation(n)
            if 0 < data.labels[perm[: n - n_val]].sum() < n - n_val:
                splits_idx.append(perm)
                break
        else:
            raise ValueError("could not draw a two-class training part")
    run_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(splits * n_seeds)]

    # one slice per (learning rate, split, seed), in that order
    runs = [(lr, si, run_seeds[si * n_seeds + s]) for lr in rates for si in range(splits) for s in range(n_seeds)]
    slices = [
        StackSlice(
            init_mlp(data.n_features, hidden, seed=run_seed),
            params,
            replace(base, learning_rate=lr, epochs=max(counts), seed=run_seed),
            rows=splits_idx[si][: n - n_val],
        )
        for lr, si, run_seed in runs
    ]
    validation = [data.subset(perm[n - n_val :]) for perm in splits_idx]
    failures = 0
    losses: dict[tuple[float, int], list[float]] = {(lr, e): [] for lr in rates for e in counts}
    for (lr, si, _), (models, _) in zip(runs, train_stack(data, slices, keep=counts)):
        for e in counts:
            if e in models:
                losses[lr, e].append(mean_loss(models[e], validation[si], params, base.loss))
            else:
                failures += 1
    if failures:
        warnings.warn(f"{failures} training run(s) failed during cross-validation", stacklevel=2)
    lr, e = min(sorted(losses), key=lambda point: np.mean(losses[point]) if losses[point] else np.inf)
    return replace(base, learning_rate=lr, epochs=e)


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
    """Everything a benchmark run needs beyond the datasets themselves; errors name a field by its config key."""

    f: float = setting(1.36, block="campaign", like=(CampaignParams, "f"))
    gamma: float = setting(0.3, block="campaign", like=(CampaignParams, "gamma"))
    slope: float = setting(block="campaign", like=(CampaignParams, "slope"))
    d_grid: tuple[str | float, ...] = DEFAULT_D_GRID
    methods: tuple[str, ...] = DEFAULT_METHODS
    q: int = setting(2, ge=1)
    hidden: int | None = setting(None, ge=1, block="model")
    learning_rate: float = setting(block="model", like=(TrainConfig, "learning_rate"))
    epochs: int = setting(block="model", like=(TrainConfig, "epochs"))
    batch_size: int | None = setting(block="model", like=(TrainConfig, "batch_size"))
    # nonempty (with cv.epochs) tunes
    cv_learning_rates: tuple[float, ...] = setting((), block="cv", key="learning_rates",
                                                   like=(TrainConfig, "learning_rate"))
    cv_epochs: tuple[int, ...] = setting((), block="cv", key="epochs", like=(TrainConfig, "epochs"))
    cv_splits: int = setting(5, ge=1, block="cv", key="splits")
    cv_seeds: int = setting(10, ge=1, block="cv", key="seeds")
    smote_k: int = setting(block="smote", key="k_neighbors", like=(SmoteConfig, "k_neighbors"))
    smote_ratio: float = setting(block="smote", key="ratio", like=(SmoteConfig, "ratio"))
    knn_k: int = setting(5, ge=1, block="baselines")
    cart_max_depth: int = setting(block="baselines", like=(CartConfig, "max_depth"))
    cart_min_leaf: int = setting(block="baselines", like=(CartConfig, "min_leaf"))
    class_threshold: float = 0.5
    # "midpoint": score regret_net's decisions per customer
    regret_net_accuracy: str = setting("threshold", one_of=("threshold", "midpoint"))
    drop_below_break_even: bool = False
    seed: int = setting(0, ge=0)

    def __post_init__(self) -> None:
        check_settings(self)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown method(s) {unknown}; available: {METHODS}")
        if not self.methods or not self.d_grid:
            raise ValueError("methods and d_grid must be nonempty")
        key = {fld.name: config_key(fld) for fld in fields(self)}
        # cells and summary.json are keyed by method name and d label, and
        # a repeated CV entry would train and score the same runs again
        for name, labels in (("methods", self.methods), ("d_grid", [str(e) for e in self.d_grid]),
                             ("cv_learning_rates", self.cv_learning_rates), ("cv_epochs", self.cv_epochs)):
            repeated = _first_repeat(labels)
            if repeated is not None:
                raise ValueError(f"{key[name]} lists {labels[repeated]!r} more than once")
        if bool(self.cv_learning_rates) != bool(self.cv_epochs):
            raise ValueError(f"{key['cv_learning_rates']} and {key['cv_epochs']} must both be given or both be empty")

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


def _fit_net(data: Dataset, cfg: RunConfig, fits, loss: str):
    """One net per (campaign, seeds) in fits, all trained as one stack.

    Under a CV grid each net whose loss reads the campaign first tunes its
    own learning rate and epoch count. A net whose training fails is
    returned as its error, which fails only the cells it serves.
    """
    hidden = cfg.hidden if cfg.hidden is not None else default_hidden(data.n_features)
    slices = []
    for params, seeds in fits:
        tc = TrainConfig(cfg.learning_rate, cfg.epochs, cfg.batch_size, loss=loss, seed=seeds[1])
        if _LOSSES[loss].reads_campaign and cfg.cv_learning_rates:
            tc = monte_carlo_cv(
                data, cfg.cv_learning_rates, cfg.cv_epochs, params, base=tc, hidden=hidden,
                splits=cfg.cv_splits, n_seeds=cfg.cv_seeds, seed=seeds[2],
            )
        slices.append(StackSlice(init_mlp(data.n_features, hidden, seed=tc.seed), params, tc))
    return [
        error or (lambda ds, model=models[s.cfg.epochs]: forward_batch(model, ds.features))
        for s, (models, error) in zip(slices, train_stack(data, slices))
    ]


def _fit_logistic(data: Dataset, cfg: RunConfig, fits):
    return [lambda ds, model=fit_logistic(data): model.score_batch(ds.features) for _ in fits]


def _fit_knn(data: Dataset, cfg: RunConfig, fits):
    k = min(cfg.knn_k, len(data))
    return [lambda ds: knn_scores(data, ds.features, k)] * len(fits)


def _fit_cart(data: Dataset, cfg: RunConfig, fits):
    cart = CartConfig(cfg.cart_max_depth, cfg.cart_min_leaf)
    return [lambda ds, tree=fit_cart(data, cart): cart_scores(tree, ds.features) for _ in fits]


_Scorer = NamedTuple("_Scorer", [("balance", bool), ("reads_d", bool), ("fit", Callable)])

# scorer -> whether it trains on the SMOTE-balanced split, whether its fit
# reads d, and the fit. A fit takes the training split, cfg and one
# (campaign, (smote, train, cv) seeds) pair per group of cells it serves:
# one group per d value when it reads d, else one. It returns for each
# group a function that scores a split, or the exception that stopped it.
_SCORERS = {
    "regret_net": _Scorer(False, True, partial(_fit_net, loss="smooth-regret")),
    "xent_net": _Scorer(True, False, partial(_fit_net, loss="cross-entropy")),
    "logistic": _Scorer(True, False, _fit_logistic),
    "knn": _Scorer(True, False, _fit_knn),
    "cart": _Scorer(True, False, _fit_cart),
    "oracle": _Scorer(False, False, lambda *_: [lambda ds: ds.labels.astype(float)]),
    "constant": _Scorer(False, False, lambda *_: [lambda ds: np.full(len(ds), 0.5)]),
}


def _run_task(task) -> list[CellResult]:
    """Fit one scorer, then run every cell it serves, group by group; see _plan."""
    name, train_s, test_s, scorer, cfg, groups = task
    try:
        balance, _, fit = _SCORERS[scorer]
        data = train_s
        if balance:
            smote = SmoteConfig(k_neighbors=cfg.smote_k, ratio=cfg.smote_ratio, seed=groups[0][0][0])
            data = smote_balance(train_s, smote)
        scorers = fit(data, cfg, [(cells[0][1], seeds) for seeds, cells in groups])
    except Exception as exc:  # a failed fit fails exactly the cells it serves
        scorers = [exc] * len(groups)
    out = []
    for score, (_, cells) in zip(scorers, groups):
        uses_train = any(_METHOD_TABLE[m][1] == "msp" for *_, m in cells)
        try:  # each group is scored once: (test, train) scores, or the error that fails its cells
            scores = score if isinstance(score, Exception) else (score(test_s), score(train_s) if uses_train else None)
        except Exception as exc:
            scores = exc
        out += [_run_cell(name, cell, cfg, train_s, test_s, scores) for cell in cells]
    return out


def _run_cell(name, cell, cfg: RunConfig, train_s, test_s, scores) -> CellResult:
    """Apply one cell's decision rule to the (test, train) scores and measure it; scores may be its group's error."""
    d_label, params, method = cell
    try:
        if isinstance(scores, Exception):
            raise scores
        test_scores, train_scores = scores
        scorer, rule = _METHOD_TABLE[method]
        threshold = cfg.class_threshold
        if rule == "msp":  # per-segment thresholds fitted on train, carried to test by CLV edges
            result = msp(train_scores, train_s.labels, train_s.clvs, cfg.q, params)
            threshold = result.thresholds[assign_segments(test_s.clvs, result.edges)]
        # accuracy judges `classified`, which for a midpoint rule is the
        # class-threshold call unless regret_net_accuracy is "midpoint"
        decisions = classified = (test_scores <= threshold).astype(np.int64)
        if rule == "midpoint":
            decisions = prescribe(test_scores, midpoint(params, test_s.clvs))
            # the public config key regret_net_accuracy names this scorer
            if scorer == "regret_net" and cfg.regret_net_accuracy == "midpoint":
                classified = decisions
        profit = total_profit(decisions, test_s.labels, params, test_s.clvs)
        optimal = optimal_total_profit(test_s.labels, params, test_s.clvs)
        gap = normalized_gap(-optimal, -profit) if optimal != 0 else np.nan
        acc = accuracy(classified, test_s.labels)
        return CellResult(name, d_label, params.d, method, profit, acc, gap, targeted_fraction(decisions), optimal)
    except Exception as exc:  # isolate the cell, keep the run going
        return CellResult(name, d_label, params.d, method, status="failed", error=f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class BenchmarkReport:
    cells: tuple[CellResult, ...]

    @property
    def failed(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.status != "ok")

    def matrix(self, field: str, d_label: str, methods, datasets) -> np.ndarray:
        """(method x dataset) values of one CellResult field for one d value; NaN for a missing or failed cell."""
        ok = (c for c in self.cells if c.d_label == d_label and c.status == "ok")
        index = {(c.method, c.dataset): getattr(c, field) for c in ok}
        return np.array([[index.get((m, ds), np.nan) for ds in datasets] for m in methods], dtype=float)

    def to_csv(self, path: str | Path) -> Path:
        columns = ("dataset", "d_label", "d", "method", "profit", "accuracy", "gap", "eta", "status")
        rows = ([getattr(c, k) for k in columns] for c in self.cells)
        return write_csv(path, [columns, *rows] if self.cells else [])


def _plan(datasets: Iterable[tuple[str, Dataset, Dataset]], cfg: RunConfig) -> list[tuple]:
    """Standardize each dataset as it arrives, resolve its d grid and group the cells by their fit.

    datasets is consumed once, in order, and no raw split is kept: when
    it yields each dataset as it is built, the plan holds every
    standardized dataset plus at most one raw one.

    A task is (name, train, test, scorer, cfg, groups), with both splits
    standardized and the training split cut to the customers above
    break-even under drop_below_break_even. A group is (seeds, cells),
    each cell (d_label, campaign, method) with one campaign per
    (dataset, d), and the seeds are those of the group's first cell in
    grid order. A scorer is fitted once per dataset, or per (dataset, d)
    under drop_below_break_even. Its task holds one group, or one per d
    value when its fit reads d (see _SCORERS).

    Raises ValueError naming the dataset when a split does not standardize,
    a d entry gives no campaign or costs that sum past float range over a
    split, or a d leaves no training customer (fewer than q with an MSP
    method); raises it naming the name when two datasets share one, since
    cells are keyed by it.
    """
    uses_msp = any(_METHOD_TABLE[m][1] == "msp" for m in cfg.methods)
    tasks: dict[tuple, tuple] = {}
    names: list[str] = []
    # no enumerate: it would hold the last raw dataset while the next one is built
    for name, train_ds, test_ds in datasets:
        if name in names:
            raise ValueError(f"dataset name {name!r} appears more than once")
        di = len(names)
        names.append(name)
        clv_mean = float(train_ds.clvs.mean())
        try:
            train_s, test_s = standardize(train_ds, test_ds)
        except ValueError as exc:
            raise ValueError(f"dataset {name!r}: {exc}") from None
        del train_ds, test_ds
        for dj, entry in enumerate(cfg.d_grid):
            try:
                params = cfg.campaign(resolve_d(entry, clv_mean))
            except ValueError as exc:
                raise ValueError(f"dataset {name!r}: {exc}") from None
            with np.errstate(over="ignore"):
                sums = [np.abs(_cost_coefficient(ds.labels, params, ds.clvs)).sum() for ds in (train_s, test_s)]
            if not np.isfinite(sums).all():
                raise ValueError(f"dataset {name!r}: d entry {entry!r} gives campaign costs that sum past float range")
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
                key = (di, dj if cfg.drop_below_break_even else None, scorer)
                groups = tasks.setdefault(key, (name, train_d, test_s, scorer, cfg, {}))[-1]
                group = dj if _SCORERS[scorer].reads_d else None
                if group not in groups:
                    groups[group] = (_cell_seeds(cfg.seed, di, dj, mi), [])
                groups[group][1].append((str(entry), params, method))
    return [(*task[:-1], list(task[-1].values())) for task in tasks.values()]


def run_benchmark(
    datasets: Iterable[tuple[str, Dataset, Dataset]],
    cfg: RunConfig,
    jobs: int = 1,
    out_dir: str | Path | None = None,
) -> BenchmarkReport:
    """Evaluate every (dataset, d, method) cell; failures never abort the run.

    datasets, any iterable of (name, train, test), is consumed once by
    _plan: one that builds a dataset per step keeps at most one raw dataset
    resident. A list is dropped once planned, which on CPython 3.11+ frees
    raw splits no caller holds.
    Each fit is one task serving one or more cells. With w = min(jobs,
    fits) above 1, the tasks run on w processes, see _run_pooled;
    otherwise they run here and no process starts. The tasks' cells come
    back in any order and are assembled by (dataset, d label, method) into
    grid order, and per-fit seeding keeps the report identical either way.
    out_dir, when given, is created with its parents once the plan stands,
    so an output path that cannot be a directory fails before the fits.
    Raises ValueError, before any fit runs, when _plan rejects a dataset,
    OSError when out_dir cannot be created, and RuntimeError when a child
    dies.
    """
    tasks = _plan(datasets, cfg)
    del datasets
    names = list(dict.fromkeys(task[0] for task in tasks))
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    workers = min(jobs, len(tasks))
    results = _run_pooled(tasks, workers) if workers > 1 else map(_run_task, tasks)
    # unique keys: RunConfig refuses a repeated method or d label and _plan a repeated dataset name
    cells = {(c.dataset, c.d_label, c.method): c for out in results for c in out}
    grid = ((name, str(entry), method) for name in names for entry in cfg.d_grid for method in cfg.methods)
    return BenchmarkReport(cells=tuple(cells[key] for key in grid))


def _claim(tasks, counter: tuple[int, int]) -> list[list[CellResult]]:
    """Run tasks until none is left, each index claimed from the counter pipe (read end, write end); their cells.

    The pipe's only message is the next index: a process reads it, writes
    back one more and runs that task if it exists, so none idles while a
    task is unclaimed.
    """
    out = []
    while True:
        i = int.from_bytes(os.read(counter[0], 8), "little")
        os.write(counter[1], (i + 1).to_bytes(8, "little"))
        if i >= len(tasks):
            return out
        out.append(_run_task(tasks[i]))


def _flush_std() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _serve(tasks, counter: tuple[int, int], w: int, inherited: tuple[int, ...]) -> NoReturn:
    """A forked child's life: close the read ends it inherited, run its share, pickle its cells into w, exit.

    It never returns into its parent's code, whatever its share raises.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(w, "wb") as out:
            pickle.dump(_claim(tasks, counter), out)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            _flush_std()
        finally:
            os._exit(code)


def _run_pooled(tasks: list[tuple], workers: int) -> list[list[CellResult]]:
    """Run tasks on `workers` processes; each task's cells, in any order.

    On Linux this process forks workers - 1 children, which share the plan
    with it, and all of them run _claim on one counter. Each child pickles
    its cells into its own pipe after its last task (a write past PIPE_BUF
    to a shared pipe could interleave) and leaves through os._exit. The
    parent takes each child in fork order: it reads its pipe to EOF, reaps
    it, raises RuntimeError if it exited nonzero, and unpickles its cells.
    On any exception it kills and reaps the children left; a child killed
    while it holds the counter stalls the others. Elsewhere fork is not
    safe (macOS) or missing (Windows), so an executor runs `workers`
    processes from the default start method while this one waits. Raises
    RuntimeError too when every child exited with results still missing.
    """
    if sys.platform != "linux":
        from concurrent.futures import ProcessPoolExecutor  # here, so that a serial run never imports it

        with ProcessPoolExecutor(workers) as pool:
            return list(pool.map(_run_task, tasks))
    counter = os.pipe()
    children: dict[int, int] = {}  # pid -> read end of its result pipe, until reaped
    try:
        os.write(counter[1], (0).to_bytes(8, "little"))
        for _ in range(workers - 1):
            r, w = os.pipe()
            _flush_std()  # or the child would write again what this process has buffered
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve(tasks, counter, w, (r, *children.values()))
            os.close(w)  # now only the child holds it, so its exit is the pipe's EOF
            children[pid] = r
        results = _claim(tasks, counter)
        for pid, r in list(children.items()):
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code:
                raise RuntimeError(f"a benchmark worker exited with code {code}")
            if payload:
                results += pickle.loads(payload)
    except BaseException:
        import signal

        for pid, r in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
        raise
    finally:
        os.close(counter[0])
        os.close(counter[1])
    if len(results) < len(tasks):
        raise RuntimeError(f"every benchmark worker exited with {len(tasks) - len(results)} task results missing")
    return results


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
        profits = report.matrix("profit", d_label, methods, datasets_names)
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
    datasets = list(dict.fromkeys(c.dataset for c in report.cells))
    profit_rows, gap_rows, eta_rows = [], [], []
    for entry in cfg.d_grid:
        d_label = str(entry)
        profit, d, gap, eta = (report.matrix(f, d_label, methods, datasets) for f in ("profit", "d", "gap", "eta"))
        for i, m in enumerate(methods):
            ok = np.flatnonzero(~np.isnan(d[i]))
            if not ok.size:
                continue
            head = {"d_label": d_label, "d_mean": float(np.mean(d[i, ok])), "method": m}
            profit_rows.append({**head, "mean_profit": float(np.mean(profit[i, ok]))})
            gaps = gap[i][~np.isnan(gap[i])]
            if gaps.size:
                gap_rows.append({**head, "mean_gap": float(np.mean(gaps))})
            eta_rows += [
                {"dataset": datasets[j], "d_label": d_label, "d": d[i, j], "method": m, "eta": eta[i, j],
                 "profit": profit[i, j]}
                for j in ok
            ]
    return {"profit_vs_d": profit_rows, "gap_vs_d": gap_rows, "eta_profit_vs_d": eta_rows}


def write_table_csv(rows: list[dict], path: str | Path) -> Path:
    """Write homogeneous dicts as CSV through data.write_csv, the first dict's keys as the header."""
    return write_csv(path, [list(rows[0]), *map(dict.values, rows)] if rows else [])
