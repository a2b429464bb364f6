"""Slow reference versions of the package's fast paths.

Tests compare the package against these for exact equality:

- sigmoid: the boolean-mask version that evaluates exp only on the
  non-overflowing branch of each element.
- train: one net's Adam loop over a dict of four parameter arrays, with
  the gradients of each array built separately. Each slice of
  models.train_stack must match it bit for bit.
- fit_logistic: steps w and b as two arrays of a dict through
  models.adam_step; models.fit_logistic steps them as one flat vector.
- monte_carlo_cv: trains every (learning rate, epochs) grid point from
  scratch, one net at a time, with no sharing of epoch prefixes.
- threshold_candidates, profit_at_threshold and mp: take the candidates
  from np.unique and rescan every customer at each of them, instead of
  one sorted pass.
- nearest_neighbors: each block of 128 queries fills one
  128 x len(ref) x n_features difference buffer, reduces it over the
  feature axis with np.sum and stable-argsorts every distance row in
  full.
- knn_scores and smote_balance: each with its own pairwise-distance
  kernel; SMOTE's is unchunked, draws the same three arrays (minority
  records, neighbour slots, gaps) and builds each synthetic row in its
  own loop.
- best_split: argsorts and scores one feature at a time; patched in for
  models._best_split, it grows the reference tree.
- cart_scores: walks each row down the tree on its own, in a Python loop,
  instead of routing row indices node by node.
- quantile_segments and segment_edges: a segment label per customer,
  filled by a loop over segment sizes, and each segment's rows found
  again by scanning those labels.
- load_dataset: reads every data row through csv and parses each cell
  with float() in a Python loop, with no C-level parse of the table.
- save_dataset: passes every row, the data rows too, through
  data.write_csv and csv, instead of joining the reprs of a data row.
- sensitivity_sweep: groups the successful cells by (method, d label) in
  a dict and averages each group's cells, with no cell matrix.

gradient_check is no reference version but a check of the package's
analytic network gradients against central differences.
"""

import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from churnopt.data import RESERVED_COLUMNS, Dataset, read_csv_rows, write_csv
from churnopt.metrics import _as_scores_labels
from churnopt.models import (
    _LOSSES,
    AdamState,
    LogisticModel,
    Mlp,
    TrainConfig,
    _flat,
    _loss_and_grad,
    _views,
    adam_step,
    default_hidden,
    init_mlp,
    mean_loss,
)


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_full(p, X):
    A = np.tanh(X @ p["w1"].T + p["b1"])
    u = A @ p["w2"] + p["b2"]
    return sigmoid(u), u, A


def _loss_and_grads(p, X, targets, loss, slope):
    scores, u, A = _forward_full(p, X)
    losses, du = _LOSSES[loss].losses_and_du(scores, u, targets, slope)
    n = X.shape[0]
    du = du / n
    grads = {
        "w2": A.T @ du,
        "b2": np.asarray(du.sum()),
    }
    dA = np.outer(du, p["w2"])
    dH = dA * (1.0 - A * A)
    grads["w1"] = dH.T @ X
    grads["b1"] = dH.sum(axis=0)
    return float(losses.mean()), grads


def train(mlp, data, params, cfg):
    if len(np.unique(data.labels)) < 2:
        raise ValueError(f"dataset {data.name!r} has a single class; need both for training")
    X, y, clv = data.features, data.labels, data.clvs
    targets = _LOSSES[cfg.loss].targets(y.astype(float), params, clv)
    p = mlp.params()
    history = []
    state = AdamState.zeros_like(p)
    rng = np.random.default_rng(cfg.seed)
    n = len(data)
    batch = cfg.resolve_batch_size(n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b, start in enumerate(range(0, n, batch)):
            idx = order[start : start + batch]
            loss, grads = _loss_and_grads(p, X[idx], targets[..., idx], cfg.loss, params.slope)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}, batch {b}")
            p, state = adam_step(p, grads, state, cfg.learning_rate)
            epoch_loss += loss * idx.size
        if not all(np.isfinite(a).all() for a in p.values()):
            raise RuntimeError(f"non-finite weights after epoch {epoch + 1}")
        if not all(np.isfinite(a).all() for a in state.v.values()):
            raise RuntimeError(f"non-finite Adam second moment after epoch {epoch + 1}")
        history.append(epoch_loss / n)
    return Mlp(**p, loss_history=history)


def gradient_check(mlp, loss, X, labels, clvs, params, h=1e-5):
    """Max mismatch between analytic and central-difference gradients.

    Every parameter entry is perturbed by +-h. The reported error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1), i.e. relative
    for large gradients and absolute near zero.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"h must lie in [1e-8, 1e-4], got {h}")
    X = np.asarray(X, dtype=float)
    targets = _LOSSES[loss].targets(np.asarray(labels, dtype=float), params, clvs)
    theta = _flat(mlp)
    analytic = np.empty_like(theta)
    p = _views(theta, *mlp.w1.shape)
    _loss_and_grad(p, X, targets, loss, params.slope, _views(analytic, *mlp.w1.shape))
    discarded = _views(np.empty_like(theta), *mlp.w1.shape)

    def loss_at():
        return _loss_and_grad(p, X, targets, loss, params.slope, discarded)

    worst = 0.0
    for i in range(theta.size):
        keep = theta[i]
        theta[i] = keep + h
        up = loss_at()
        theta[i] = keep - h
        down = loss_at()
        theta[i] = keep
        numeric = (up - down) / (2 * h)
        a = float(analytic[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst


def monte_carlo_cv(data, grid, params, base=None, hidden=None, splits=5, n_seeds=10, seed=0):
    base = base if base is not None else TrainConfig()
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
    best = None
    for lr, epochs in sorted(grid):
        cfg = replace(base, learning_rate=lr, epochs=int(epochs))
        losses = []
        for si, perm in enumerate(splits_idx):
            tr = data.subset(perm[: n - n_val])
            va = data.subset(perm[n - n_val :])
            for s in range(n_seeds):
                run_seed = run_seeds[si * n_seeds + s]
                try:
                    model = train(
                        init_mlp(data.n_features, hidden, seed=run_seed),
                        tr,
                        params,
                        replace(cfg, seed=run_seed),
                    )
                except RuntimeError:
                    failures += 1
                    continue
                losses.append(mean_loss(model, va, params, cfg.loss))
        score = float(np.mean(losses)) if losses else np.inf
        if best is None or score < best[0]:
            best = (score, lr, int(epochs))
    if failures:
        warnings.warn(f"{failures} training run(s) failed during cross-validation", stacklevel=2)
    return replace(base, learning_rate=best[1], epochs=best[2])


def fit_logistic(data):
    X, y = data.features, data.labels.astype(float)
    p = {"w": np.zeros(X.shape[1]), "b": np.zeros(())}
    state = AdamState.zeros_like(p)
    for epoch in range(300):
        u = X @ p["w"] + p["b"]
        loss = float(np.mean(np.logaddexp(0.0, -u) + (1.0 - y) * u))
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite logistic loss at epoch {epoch}")
        du = (sigmoid(u) - y) / len(y)
        grads = {"w": X.T @ du, "b": np.asarray(du.sum())}
        p, state = adam_step(p, grads, state, 0.05)
    return LogisticModel(w=p["w"], b=float(p["b"]))


def threshold_candidates(scores) -> np.ndarray:
    """-inf, midpoints between consecutive distinct sorted scores, +inf.

    Where a midpoint is not finite, the lower score (+ 0.0, so a zero is
    +0.0) stands in for it.
    """
    distinct = np.unique(np.asarray(scores, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # -inf + inf, or a sum past the float maximum
        mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([-np.inf], np.where(np.isfinite(mids), mids, distinct[:-1] + 0.0), [np.inf]))


@dataclass(frozen=True)
class ThresholdedEvaluation:
    threshold: float
    profit_per_customer: float
    targeted_churners: int
    targeted_nonchurners: int


def profit_at_threshold(scores, labels, t, params, clv_avg):
    scores, labels = _as_scores_labels(scores, labels)
    n = scores.size
    targeted = scores <= t
    n0 = int(np.sum(targeted & (labels == 0)))
    n1 = int(np.sum(targeted & (labels == 1)))
    churner_gain = params.gamma * (clv_avg - params.d) - params.f
    nonchurner_cost = params.d + params.f
    churner_term = churner_gain * n0 if n0 > 0 else 0.0
    profit = (churner_term - nonchurner_cost * n1) / n
    return ThresholdedEvaluation(
        threshold=float(t),
        profit_per_customer=float(profit),
        targeted_churners=n0,
        targeted_nonchurners=n1,
    )


def mp(scores, labels, params, clv_avg):
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


def nearest_neighbors(ref: np.ndarray, X: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """Indices of the k Euclidean-nearest rows of ref for each row of X, nearest first.

    Distance ties break toward the lower ref index. With exclude_self, X is
    ref and each row's own index counts as infinitely far. Blocks of 128
    queries share one difference buffer of 128 x len(ref) x n_features.
    """
    buf = np.empty((min(128, X.shape[0]), ref.shape[0], ref.shape[1]))
    out = np.empty((X.shape[0], k), dtype=np.intp)
    for start in range(0, X.shape[0], 128):
        block = X[start : start + 128]
        diff = np.subtract(block[:, None, :], ref[None, :, :], out=buf[: len(block)])
        dist = np.sqrt(np.sum(np.multiply(diff, diff, out=diff), axis=2))
        if exclude_self:
            dist[np.arange(len(block)), np.arange(start, start + len(block))] = np.inf
        out[start : start + len(block)] = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return out


def best_split(X, y01, min_leaf):
    n = y01.size
    best = None  # (impurity, feature, threshold)
    for j in range(X.shape[1]):
        vals = X[:, j]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        ones = np.cumsum(y01[order])
        sizes = np.arange(1, n)
        left1 = ones[:-1]
        valid = (sizes >= min_leaf) & (n - sizes >= min_leaf) & (v[:-1] < v[1:])
        if not valid.any():
            continue
        p_l = left1 / sizes
        p_r = (ones[-1] - left1) / (n - sizes)
        weighted = (sizes * 2 * p_l * (1 - p_l) + (n - sizes) * 2 * p_r * (1 - p_r)) / n
        weighted = np.where(valid, weighted, np.inf)
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            best = (float(weighted[i]), j, float((v[i] + v[i + 1]) / 2))
    return best


def cart_scores(tree, X):
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = tree
        while node.feature is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out[i] = node.score
    return out


def knn_scores(train, X, k):
    if not 1 <= k <= len(train):
        raise ValueError(f"k must be in [1, {len(train)}], got {k}")
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], 128):
        block = X[start : start + 128]
        diff = block[:, None, :] - train.features[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        out[start : start + 128] = (train.labels[nearest] == 1).mean(axis=1)
    return out


def smote_balance(train, cfg):
    labels = train.labels
    counts = {0: int(np.sum(labels == 0)), 1: int(np.sum(labels == 1))}
    if counts[0] == 0 or counts[1] == 0:
        raise ValueError(f"dataset {train.name!r} has a single class; SMOTE needs both")
    minority = 0 if counts[0] <= counts[1] else 1
    n_min, n_maj = counts[minority], counts[1 - minority]
    n_new = round(cfg.ratio * n_maj) - n_min
    if n_new <= 0:
        return train
    if n_min < 2:
        raise ValueError("minority class of size 1 cannot be oversampled")
    k = min(cfg.k_neighbors, n_min - 1)
    if k < cfg.k_neighbors:
        warnings.warn(f"k_neighbors clamped to {k} (minority class has {n_min} records)", stacklevel=2)
    min_idx = np.flatnonzero(labels == minority)
    Xm = train.features[min_idx]
    clv_m = train.clvs[min_idx]
    diff = Xm[:, None, :] - Xm[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, np.inf)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]

    rng = np.random.default_rng(cfg.seed)
    draws_a = rng.integers(n_min, size=n_new)
    draws_slot = rng.integers(k, size=n_new)
    draws_u = rng.uniform(0.0, 1.0, n_new)
    new_feats = np.empty((n_new, train.n_features))
    new_clvs = np.empty(n_new)
    for i in range(n_new):
        a, u = draws_a[i], draws_u[i]
        b = neighbors[a, draws_slot[i]]
        new_feats[i] = Xm[a] + u * (Xm[b] - Xm[a])
        new_clvs[i] = clv_m[a] + u * (clv_m[b] - clv_m[a])

    return Dataset(
        name=train.name,
        schema=train.schema,
        features=np.vstack([train.features, new_feats]),
        labels=np.concatenate([train.labels, np.full(n_new, minority, dtype=np.int64)]),
        clvs=np.concatenate([train.clvs, new_clvs]),
    )


@dataclass(frozen=True)
class SegmentAssignment:
    q: int
    segment_of: np.ndarray  # (n,) int, values in [0, q)

    def indices(self, segment):
        return np.flatnonzero(self.segment_of == segment)


def quantile_segments(clvs, q):
    clvs = np.asarray(clvs, dtype=float)
    n = clvs.size
    if not 1 <= q <= n:
        raise ValueError(f"q must be in [1, {n}], got {q}")
    order = np.argsort(clvs, kind="stable")
    base, extra = divmod(n, q)
    segment_of = np.empty(n, dtype=np.int64)
    start = 0
    for s in range(q):
        size = base + (1 if s < extra else 0)
        segment_of[order[start : start + size]] = s
        start += size
    return SegmentAssignment(q=q, segment_of=segment_of)


def segment_edges(clvs, assignment):
    clvs = np.asarray(clvs, dtype=float)
    return np.array([clvs[assignment.indices(s)].max() for s in range(assignment.q - 1)], dtype=float)


def load_dataset(path, schema=None, name=None):
    path = Path(path)
    reader = read_csv_rows(path)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    for col in RESERVED_COLUMNS:
        if col not in header:
            raise ValueError(f"{path}: missing required column {col!r}")
    if schema is None:
        feature_cols = [h for h in header if h not in RESERVED_COLUMNS]
    else:
        feature_cols = list(schema)
        missing = [c for c in feature_cols if c not in header]
        if missing:
            raise ValueError(f"{path}: missing feature column(s) {missing}")
        extra = [h for h in header if h not in feature_cols and h not in RESERVED_COLUMNS]
        if extra:
            raise ValueError(f"{path}: unexpected column(s) {extra}")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")
    if not feature_cols:
        raise ValueError(f"{path}: no feature column besides 'clv' and 'label'")
    col_index = {h: i for i, h in enumerate(header)}
    feat_idx = [col_index[c] for c in feature_cols]
    clv_idx = col_index["clv"]
    label_idx = col_index["label"]

    rows_feat, rows_label, rows_clv = [], [], []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")

        def parse(cell, col):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column {col!r}: non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {row_no}, column {col!r}: non-finite value {cell!r}")
            return value

        feats = [parse(row[i], feature_cols[j]) for j, i in enumerate(feat_idx)]
        clv = parse(row[clv_idx], "clv")
        if not clv > 0:
            raise ValueError(f"{path}: row {row_no}: clv must be > 0, got {clv}")
        label_f = parse(row[label_idx], "label")
        if label_f not in (0.0, 1.0):
            raise ValueError(f"{path}: row {row_no}: label must be 0 or 1, got {row[label_idx]!r}")
        rows_feat.append(feats)
        rows_label.append(int(label_f))
        rows_clv.append(clv)

    if not rows_feat:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        name=name if name is not None else path.stem,
        schema=tuple(feature_cols),
        features=np.asarray(rows_feat, dtype=float),
        labels=np.asarray(rows_label, dtype=np.int64),
        clvs=np.asarray(rows_clv, dtype=float),
    )



def save_dataset(ds, path):
    rows = (f.tolist() + [c, y] for f, c, y in zip(ds.features, ds.clvs.tolist(), ds.labels.tolist()))
    return write_csv(path, chain([[*ds.schema, "clv", "label"]], rows))

def sensitivity_sweep(report, cfg):
    by_method_d = {}
    for c in report.cells:
        if c.status == "ok":
            by_method_d.setdefault((c.method, c.d_label), []).append(c)
    profit_rows, gap_rows, eta_rows = [], [], []
    for entry in cfg.d_grid:
        d_label = str(entry)
        for m in cfg.methods:
            cells = by_method_d.get((m, d_label), [])
            if not cells:
                continue
            d_mean = float(np.mean([c.d for c in cells]))
            mean_profit = float(np.mean([c.profit for c in cells]))
            profit_rows.append({"d_label": d_label, "d_mean": d_mean, "method": m, "mean_profit": mean_profit})
            gaps = [c.gap for c in cells if not np.isnan(c.gap)]
            if gaps:
                gap_rows.append({"d_label": d_label, "d_mean": d_mean, "method": m, "mean_gap": float(np.mean(gaps))})
            for c in cells:
                eta_rows.append(
                    {"dataset": c.dataset, "d_label": d_label, "d": c.d, "method": m, "eta": c.eta, "profit": c.profit}
                )
    return {"profit_vs_d": profit_rows, "gap_vs_d": gap_rows, "eta_profit_vs_d": eta_rows}
