"""Trainable churn scorers.

The primary model is a one-hidden-layer network (tanh hidden units,
logistic output) trained with manual backpropagation and Adam on either
the smooth campaign-regret loss or binary cross-entropy. Baselines:
logistic regression, k-nearest neighbors, and a Gini-split decision tree.

All scorers emit scores in (0, 1) estimating the label (0 = churner),
so low scores flag likely churners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .campaign import CampaignParams, sigmoid, smooth_regret_loss, smooth_regret_terms
from .data import Dataset

__all__ = [
    "Mlp",
    "TrainConfig",
    "AdamState",
    "default_hidden",
    "init_mlp",
    "forward_batch",
    "adam_step",
    "train_epochs",
    "train",
    "mean_loss",
    "gradient_check",
    "LogisticModel",
    "fit_logistic",
    "nearest_neighbors",
    "knn_scores",
    "CartConfig",
    "CartNode",
    "fit_cart",
    "cart_scores",
]

LOSS_KINDS = ("smooth-regret", "cross-entropy")


@dataclass
class Mlp:
    """One-hidden-layer scorer: sigmoid(w2 . tanh(w1 x + b1) + b2)."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # scalar, shape ()
    loss_history: list[float] = field(default_factory=list, repr=False, compare=False)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loss settings for gradient-trained scorers."""

    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int | None = None  # None: full batch up to 1024 rows, else 128
    loss: str = "smooth-regret"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")

    def resolve_batch_size(self, n: int) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, n)
        return n if n <= 1024 else 128


def default_hidden(input_dim: int) -> int:
    """Default hidden width: half the input width, rounded up."""
    return max(1, math.ceil(input_dim / 2))


def init_mlp(input_dim: int, hidden_dim: int, seed: int = 0) -> Mlp:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("input_dim and hidden_dim must be >= 1")
    rng = np.random.default_rng(seed)
    lim1 = math.sqrt(6.0 / (input_dim + hidden_dim))
    lim2 = math.sqrt(6.0 / (hidden_dim + 1))
    return Mlp(
        w1=rng.uniform(-lim1, lim1, size=(hidden_dim, input_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-lim2, lim2, size=hidden_dim),
        b2=np.zeros(()),
    )


def _forward_full(p: dict[str, np.ndarray], X: np.ndarray):
    """Forward pass keeping intermediates for backprop.

    Returns (scores, pre-activation u, hidden activations A).
    """
    A = np.tanh(X @ p["w1"].T + p["b1"])
    u = A @ p["w2"] + p["b2"]
    return sigmoid(u), u, A


def forward_batch(mlp: Mlp, X: np.ndarray) -> np.ndarray:
    """Scores for a feature matrix, shape (n,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mlp.input_dim:
        raise ValueError(f"expected (n, {mlp.input_dim}) features, got {X.shape}")
    scores, _, _ = _forward_full(mlp.params(), X)
    return scores


@dataclass
class AdamState:
    """First/second moment accumulators per parameter plus a step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
        )


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
_DECAY_M, _DECAY_V, _EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; advances the state in place."""
    state.t += 1
    out: dict[str, np.ndarray] = {}
    for k, theta in params.items():
        g = grads[k]
        state.m[k] = _DECAY_M * state.m[k] + (1 - _DECAY_M) * g
        state.v[k] = _DECAY_V * state.v[k] + (1 - _DECAY_V) * g * g
        m_hat = state.m[k] / (1 - _DECAY_M**state.t)
        v_hat = state.v[k] / (1 - _DECAY_V**state.t)
        out[k] = theta - learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
    return out, state


def _loss_targets(loss: str, labels, params: CampaignParams, clvs) -> np.ndarray:
    """What the loss compares scores against, one customer per last-axis entry.

    The labels for cross-entropy; the stacked smooth_regret_terms for the
    smooth regret, so a batch is targets[..., idx] either way.
    """
    labels = np.asarray(labels, dtype=float)
    if loss == "cross-entropy":
        return labels
    return np.stack(smooth_regret_terms(labels, params, clvs))


def _cross_entropy(u, y):
    """Binary cross-entropy of sigmoid(u) against labels y, from the logit u."""
    return np.logaddexp(0.0, -u) + (1.0 - y) * u


def _losses_and_du(scores, u, targets, loss: str, slope: float):
    """Per-example losses and dloss/du for the output pre-activation u.

    Not yet averaged over the batch.
    """
    if loss == "cross-entropy":
        return _cross_entropy(u, targets), scores - targets
    losses, dscore = smooth_regret_loss(scores, targets, slope)
    return losses, dscore * scores * (1.0 - scores)


def _flat(mlp: Mlp) -> np.ndarray:
    """A new float vector holding w1 (row-major), b1, w2 and b2, in that order."""
    return np.concatenate([np.ravel(a) for a in (mlp.w1, mlp.b1, mlp.w2, mlp.b2)], dtype=float)


def _views(theta: np.ndarray, hidden: int, input_dim: int) -> dict[str, np.ndarray]:
    """w1, b1, w2 and b2 as views into a vector laid out by _flat."""
    k = hidden * input_dim
    return {
        "w1": theta[:k].reshape(hidden, input_dim),
        "b1": theta[k : k + hidden],
        "w2": theta[k + hidden : k + 2 * hidden],
        "b2": theta[-1:].reshape(()),
    }


def _loss_and_grad(p, X, targets, loss, slope, grads) -> float:
    """Mean loss over the batch; writes its gradients into the arrays of grads."""
    scores, u, A = _forward_full(p, X)
    losses, du = _losses_and_du(scores, u, targets, loss, slope)
    du = du / X.shape[0]
    np.matmul(A.T, du, out=grads["w2"])
    np.sum(du, out=grads["b2"])
    dH = np.outer(du, p["w2"]) * (1.0 - A * A)
    np.matmul(dH.T, X, out=grads["w1"])
    np.sum(dH, axis=0, out=grads["b1"])
    return float(losses.mean())


def train_epochs(mlp: Mlp, data: Dataset, params: CampaignParams, cfg: TrainConfig) -> Iterator[Mlp]:
    """Mini-batch Adam training that yields a new model after each epoch.

    The model yielded after epoch e is the one train returns with
    cfg.epochs = e, so one run serves every shorter epoch count.
    Shuffling, batching and updates are fully determined by cfg.seed.
    Each model carries the per-epoch mean training loss so far on its
    loss_history (not asserted monotone; the optimizer is stochastic).

    Raises:
        RuntimeError: the loss became non-finite (reports epoch and batch).
    """
    data.require_both_classes()
    X, y, clv = data.features, data.labels, data.clvs
    if X.shape[1] != mlp.input_dim:
        raise ValueError(f"model expects {mlp.input_dim} features, data has {X.shape[1]}")
    targets = _loss_targets(cfg.loss, y, params, clv)

    # the four parameters are views into theta and their gradients views
    # into g, so one Adam update of the flat vector moves them all
    shape = mlp.w1.shape
    theta = _flat(mlp)
    p = _views(theta, *shape)
    g = np.empty_like(theta)
    grads = _views(g, *shape)
    state = AdamState.zeros_like({"theta": theta})
    history: list[float] = []
    rng = np.random.default_rng(cfg.seed)
    n = len(data)
    batch = cfg.resolve_batch_size(n)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b, start in enumerate(range(0, n, batch)):
            idx = order[start : start + batch]
            loss = _loss_and_grad(p, X[idx], targets[..., idx], cfg.loss, params.slope, grads)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}, batch {b}")
            stepped, state = adam_step({"theta": theta}, {"theta": g}, state, cfg.learning_rate)
            theta[...] = stepped["theta"]
            epoch_loss += loss * idx.size
        history.append(epoch_loss / n)
        yield Mlp(**_views(theta.copy(), *shape), loss_history=history[:])


def train(mlp: Mlp, data: Dataset, params: CampaignParams, cfg: TrainConfig) -> Mlp:
    """Mini-batch Adam training for cfg.epochs epochs; returns a new trained model.

    mlp is left as it is. See train_epochs, whose last model this is.
    """
    for model in train_epochs(mlp, data, params, cfg):
        pass
    return model


def mean_loss(mlp: Mlp, data: Dataset, params: CampaignParams, loss: str) -> float:
    """Mean per-customer loss of a fixed model on a dataset."""
    if loss not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {loss!r}")
    targets = _loss_targets(loss, data.labels, params, data.clvs)
    scores, u, _ = _forward_full(mlp.params(), data.features)
    losses, _ = _losses_and_du(scores, u, targets, loss, params.slope)
    return float(losses.mean())


def gradient_check(
    mlp: Mlp,
    loss: str,
    X,
    labels,
    clvs,
    params: CampaignParams,
    h: float = 1e-5,
) -> float:
    """Max mismatch between analytic and central-difference gradients.

    Every parameter entry is perturbed by +-h. The reported error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1), i.e. relative
    for large gradients and absolute near zero.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"h must lie in [1e-8, 1e-4], got {h}")
    X = np.asarray(X, dtype=float)
    targets = _loss_targets(loss, labels, params, clvs)
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


@dataclass(frozen=True)
class LogisticModel:
    """Linear scorer: sigmoid(w . x + b)."""

    w: np.ndarray
    b: float

    def score_batch(self, X) -> np.ndarray:
        return np.asarray(sigmoid(np.asarray(X, dtype=float) @ self.w + self.b))


def fit_logistic(data: Dataset) -> LogisticModel:
    """300 full-batch Adam cross-entropy steps at learning rate 0.05 from a zero start."""
    X, y = data.features, data.labels.astype(float)
    w = np.zeros(X.shape[1])
    b = np.zeros(())
    p = {"w": w, "b": b}
    state = AdamState.zeros_like(p)
    for epoch in range(300):
        u = X @ p["w"] + p["b"]
        loss = float(np.mean(_cross_entropy(u, y)))
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite logistic loss at epoch {epoch}")
        du = (sigmoid(u) - y) / len(y)
        grads = {"w": X.T @ du, "b": np.asarray(du.sum())}
        p, state = adam_step(p, grads, state, 0.05)
    return LogisticModel(w=p["w"], b=float(p["b"]))


def nearest_neighbors(ref: np.ndarray, X: np.ndarray, k: int, exclude_self: bool = False) -> np.ndarray:
    """Indices of the k Euclidean-nearest rows of ref for each row of X, nearest first.

    Distance ties break toward the lower ref index. With exclude_self, X is
    ref and each row's own index counts as infinitely far. The result is
    that of stable-argsorting, for each query x, the reference distances
    np.sqrt(np.sum(diff * diff, axis=-1)) with diff = x - ref.

    Queries run in blocks of at most 64 rows, fewer where a block x
    len(ref) x n_features product would pass 2**19. Each block is
    searched in two stages:

    1. Screen. One matmul against -2 ref^T plus the squared row norms
       gives approximate squared distances A. With f features, u the unit
       roundoff, gamma_n = n u / (1 - n u) (Higham 2002, section 3.1) and
       e = gamma_{f+2} (|x| + max|r|)^2 + (f + 2) 2**-1074 (the last term
       covers underflow), both A and the reference formula's squared
       distance S lie within e of the true squared distance.
       With A_k the row's k-th smallest A and E = 4 e, a column stays on
       the shortlist when A <= A_k + 2 E + rho |A_k|, rho = 4 eps.
    2. Refine. The shortlisted (row, column) pairs get the reference
       formula itself over a contiguous feature axis, so their distances
       are its bits, and np.lexsort by (row, distance, column) picks the
       k nearest of each row.

    Exactness: each of the k columns with the smallest A has S <= A_k + 2 e,
    and a dropped column has S > A_k + 6 e. The gap 4 e >= 8 u (|x| +
    max|r|)^2 is more than sqrt's rounding can close, so a dropped column
    is strictly farther, after sqrt, than k shortlisted ones, and the
    stable (distance, index) order of the shortlist is the reference
    order, ties at the k-th distance included. A row whose bound or
    approximations are not finite keeps every column.

    Raises:
        ValueError: ref is not 2-D, X is not (n, ref's feature count),
            either holds a non-finite value, or k lies outside
            [1, len(ref) - exclude_self].
    """
    if ref.ndim != 2:
        raise ValueError(f"ref has shape {ref.shape}, expected (n, n_features)")
    if X.ndim != 2 or X.shape[1] != ref.shape[1]:
        raise ValueError(f"queries have shape {X.shape}, expected (n, {ref.shape[1]}) like ref")
    if not (np.isfinite(ref).all() and np.isfinite(X).all()):
        raise ValueError("ref and queries must be finite")
    if not 1 <= k <= len(ref) - exclude_self:
        raise ValueError(f"k must be in [1, {len(ref) - exclude_self}], got {k}")
    n_ref, f = ref.shape
    finfo = np.finfo(float)
    gamma = (f + 2) * finfo.epsneg / (1 - (f + 2) * finfo.epsneg)  # epsneg = 2**-53 = u
    ref_sq = np.einsum("ij,ij->i", ref, ref)
    ref_norm = math.sqrt(ref_sq.max())
    ref_m2t = -2.0 * ref.T
    rows_per_block = min(64, max(1, 2**19 // max(1, n_ref * f)))
    out = np.empty((X.shape[0], k), dtype=np.intp)
    for start in range(0, X.shape[0], rows_per_block):
        block = X[start : start + rows_per_block]
        # an overflow leaves A or the bound non-finite, and such a row keeps every column
        with np.errstate(over="ignore", invalid="ignore"):
            q_sq = np.einsum("ij,ij->i", block, block)
            approx = block @ ref_m2t
            approx += q_sq[:, None]
            approx += ref_sq
            screened = np.isfinite(approx).all(axis=1)
            if exclude_self:
                own = np.arange(len(block))
                approx[own, own + start] = np.inf
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            e = gamma * (np.sqrt(q_sq) + ref_norm) ** 2 + (f + 2) * finfo.smallest_subnormal
            limit = kth + 8 * e + 4 * finfo.eps * np.abs(kth)
        keep = approx <= limit[:, None]
        keep[~screened] = True
        rows, cols = np.divmod(np.flatnonzero(keep), n_ref)  # faster than np.nonzero on 2-D
        diff = block[rows] - ref[cols]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        if exclude_self:
            dist[cols == rows + start] = np.inf
        order = np.lexsort((cols, dist, rows))
        counts = np.count_nonzero(keep, axis=1)
        first = np.cumsum(counts) - counts
        out[start : start + len(block)] = cols[order[first[:, None] + np.arange(k)]]
    return out


def knn_scores(train: Dataset, X, k: int) -> np.ndarray:
    """k-nearest-neighbor scores for each query row.

    The score is the fraction of the k Euclidean-nearest training labels
    equal to 1; distance ties break toward the lower training index.
    """
    nearest = nearest_neighbors(train.features, np.asarray(X, dtype=float), k)
    return (train.labels[nearest] == 1).mean(axis=1)


@dataclass(frozen=True)
class CartConfig:
    max_depth: int = 6
    min_leaf: int = 5

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")


@dataclass(frozen=True)
class CartNode:
    """Decision-tree node; a leaf when feature is None."""

    score: float  # non-churner rate of the training rows at this node
    feature: int | None = None
    threshold: float = 0.0
    left: "CartNode | None" = None  # rows with value <= threshold
    right: "CartNode | None" = None


def _best_split(X: np.ndarray, y01: np.ndarray, min_leaf: int):
    """Lowest weighted-Gini split; ties to the first feature, lowest threshold.

    Every feature's candidate splits are scored at once, from one argsort
    down the rows, in column blocks of at most 2**20 cells. The sort need
    not be stable: tied values are never split, so the class counts at
    every valid split are the same in any order of the ties.
    """
    n = y01.size
    sizes = np.arange(1, n)[:, None]
    size_ok = (sizes >= min_leaf) & (n - sizes >= min_leaf)
    best = None  # (impurity, feature, threshold)
    width = max(1, 2**20 // n)
    for lo in range(0, X.shape[1], width):
        cols = X[:, lo : lo + width]
        order = np.argsort(cols, axis=0)
        v = np.take_along_axis(cols, order, axis=0)
        ones = np.cumsum(y01[order], axis=0)
        left1 = ones[:-1]
        valid = size_ok & (v[:-1] < v[1:])
        p_l = left1 / sizes
        p_r = (ones[-1] - left1) / (n - sizes)
        weighted = (sizes * 2 * p_l * (1 - p_l) + (n - sizes) * 2 * p_r * (1 - p_r)) / n
        weighted = np.where(valid, weighted, np.inf)
        rows = np.argmin(weighted, axis=0)
        lowest = weighted[rows, np.arange(cols.shape[1])]
        j = int(np.argmin(lowest))
        if lowest[j] < (np.inf if best is None else best[0]):
            i = rows[j]
            best = (float(lowest[j]), lo + j, float((v[i, j] + v[i + 1, j]) / 2))
    return best


def _grow(X, y01, cfg: CartConfig, depth: int) -> CartNode:
    score = float(y01.mean())
    if depth >= cfg.max_depth or y01.size < 2 * cfg.min_leaf or score in (0.0, 1.0):
        return CartNode(score=score)
    parent_gini = 2 * score * (1 - score)
    best = _best_split(X, y01, cfg.min_leaf)
    if best is None or best[0] >= parent_gini - 1e-12:
        return CartNode(score=score)
    _, j, thr = best
    mask = X[:, j] <= thr
    return CartNode(
        score=score,
        feature=j,
        threshold=thr,
        left=_grow(X[mask], y01[mask], cfg, depth + 1),
        right=_grow(X[~mask], y01[~mask], cfg, depth + 1),
    )


def fit_cart(data: Dataset, cfg: CartConfig) -> CartNode:
    """Greedy Gini-impurity binary tree on single-feature thresholds."""
    return _grow(data.features, (data.labels == 1).astype(float), cfg, depth=0)


def cart_scores(tree: CartNode, X) -> np.ndarray:
    """Score of the leaf each row of X reaches."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = tree
        while node.feature is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out[i] = node.score
    return out
