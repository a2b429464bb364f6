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
from typing import Collection, Sequence

import numpy as np

from ._settings import check_settings, setting
from .campaign import CampaignParams, sigmoid, smooth_regret_loss, smooth_regret_terms
from .data import Dataset

__all__ = [
    "Mlp",
    "TrainConfig",
    "default_hidden",
    "init_mlp",
    "forward_batch",
    "StackSlice",
    "train_stack",
    "mean_loss",
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

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loss settings for gradient-trained scorers."""

    learning_rate: float = setting(0.01, gt=0)
    epochs: int = setting(50, ge=1)
    batch_size: int | None = setting(None, ge=1)  # None: full batch up to 1024 rows, else 128
    loss: str = setting("smooth-regret", one_of=LOSS_KINDS)
    seed: int = setting(0, ge=0)

    def __post_init__(self) -> None:
        check_settings(self)

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

    Works on one net, or on a stack of K nets with a leading K axis on
    every parameter and on X; a stacked matmul runs one product per net.
    Returns (scores, pre-activation u, hidden activations A).
    """
    A = X @ p["w1"].swapaxes(-1, -2)
    A += p["b1"][..., None, :]
    np.tanh(A, out=A)
    u = (A @ p["w2"][..., None])[..., 0]
    u += p["b2"][..., None]
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
    """First/second moment accumulators per parameter plus a step counter.

    The program trains through _adam; this and adam_step remain for
    perfbench's adam_step probe and the reference loop in tests/oracles.py.
    """

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


def _adam(theta, g, m, v, t: int, learning_rate):
    """Bias-corrected Adam step number t: the new parameters and moments (m, v).

    learning_rate is a number, or one rate per row of a stack of K flat
    parameter vectors given as a (K, 1) array.
    """
    m = _DECAY_M * m + (1 - _DECAY_M) * g
    v = _DECAY_V * v + (1 - _DECAY_V) * g * g
    m_hat = m / (1 - _DECAY_M**t)
    v_hat = v / (1 - _DECAY_V**t)
    return theta - learning_rate * m_hat / (np.sqrt(v_hat) + _EPS), m, v


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
        out[k], state.m[k], state.v[k] = _adam(theta, grads[k], state.m[k], state.v[k], state.t, learning_rate)
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
    """w1, b1, w2 and b2 as views into a vector laid out by _flat, or into each row of a stack of them."""
    k = hidden * input_dim
    return {
        "w1": theta[..., :k].reshape(*theta.shape[:-1], hidden, input_dim),
        "b1": theta[..., k : k + hidden],
        "w2": theta[..., k + hidden : k + 2 * hidden],
        "b2": theta[..., -1],
    }


def _loss_and_grad(p, X, targets, loss, slope, grads):
    """Mean loss over the batch of each net; writes the gradients into the arrays of grads.

    One net, or a stack of them as in _forward_full.
    """
    scores, u, A = _forward_full(p, X)
    losses, du = _losses_and_du(scores, u, targets, loss, slope)
    du /= X.shape[-2]
    np.matmul(A.swapaxes(-1, -2), du[..., None], out=grads["w2"][..., None])
    np.add.reduce(du, axis=-1, out=grads["b2"])
    dH = du[..., None] * p["w2"][..., None, :]
    A *= A
    dH *= np.subtract(1.0, A, out=A)
    np.matmul(dH.swapaxes(-1, -2), X, out=grads["w1"])
    np.add.reduce(dH, axis=-2, out=grads["b1"])
    return np.add.reduce(losses, axis=-1) / losses.shape[-1]


@dataclass(frozen=True)
class StackSlice:
    """One net of a training stack: its start, campaign, settings and training rows."""

    init: Mlp
    params: CampaignParams
    cfg: TrainConfig
    rows: np.ndarray | None = None  # the rows of the stack's dataset it trains on; None: all


def train_stack(
    data: Dataset, slices: Sequence[StackSlice], keep: Collection[int] = ()
) -> list[tuple[dict[int, Mlp], RuntimeError | None]]:
    """Mini-batch Adam training of K same-shaped nets side by side, each as if alone.

    Slice k trains slices[k].cfg.epochs epochs on its rows of data,
    against its own campaign, from its own start, at its own learning
    rate, shuffled by its own Generator(cfg.seed). Every product is a
    stacked matmul, so numpy runs one GEMM or GEMV per slice on that
    slice's 2-D operands, and every other step is elementwise or reduces
    within one slice: each slice gets the bits that training it alone
    gives. That is checked under OpenBLAS's SkylakeX, Haswell and
    Sandybridge kernels, and is known to fail under Katmai
    (OPENBLAS_CORETYPE=Prescott), whose products round their last bit by
    operand alignment: a slice's views are not aligned as a lone net's
    fresh arrays are. A slice that fails or finishes keeps its row and is
    not read again: zeroed at rate 0, its weights stay zero and finite.

    Returns one (models, error) pair per slice. models maps the slice's
    epoch count, and each count in keep below it, to a new model after
    that many epochs, which carries the per-epoch mean training loss so
    far on its loss_history. error is None, or the RuntimeError that
    stopped the slice: "non-finite training loss at epoch E, batch B"
    (checked before each step), or "non-finite weights after epoch E" or
    else "non-finite Adam second moment after epoch E" (checked after each
    epoch); models then holds the counts it completed.

    Raises:
        ValueError: there are no slices; they differ in net shape, loss,
            slope, row count or batch size; the nets do not take the
            data's features; or a slice's rows hold a single class.
    """
    if not slices:
        raise ValueError("a training stack needs at least one net")
    X, y, clv = data.features, data.labels, data.clvs
    rows = [np.arange(len(data)) if s.rows is None else np.asarray(s.rows) for s in slices]
    first, n = slices[0], len(rows[0])
    shared = (first.init.w1.shape, first.cfg.loss, first.params.slope, first.cfg.resolve_batch_size(n))
    (hidden, input_dim), loss, slope, batch = shared
    if input_dim != X.shape[1]:
        raise ValueError(f"model expects {input_dim} features, data has {X.shape[1]}")
    for s, r in zip(slices, rows):
        if len(r) != n or (s.init.w1.shape, s.cfg.loss, s.params.slope, s.cfg.resolve_batch_size(n)) != shared:
            raise ValueError("the nets of a stack must share their shape, loss, slope, row count and batch size")
        if not 0 < y[r].sum() < len(r):
            raise ValueError(f"dataset {data.name!r} has a single class; need both for training")

    # slices with one campaign share its targets, laid end to end: slice
    # k reads those of its data row i at offset[k] + i
    campaigns: dict[CampaignParams, int] = {}
    offset = len(data) * np.array([[campaigns.setdefault(s.params, len(campaigns))] for s in slices])
    targets = np.concatenate([_loss_targets(loss, y, c, clv) for c in campaigns], axis=-1)
    last_epoch = np.array([s.cfg.epochs for s in slices])
    rngs = [np.random.default_rng(s.cfg.seed) for s in slices]
    models: list[dict[int, Mlp]] = [{} for _ in slices]
    errors: list[RuntimeError | None] = [None] * len(slices)
    history = np.zeros((len(slices), max(last_epoch)))  # per-epoch mean training losses

    # one row per slice of the parameters, their gradients, Adam's moments and rate
    theta = np.stack([_flat(s.init) for s in slices])
    g, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    lr = np.array([[s.cfg.learning_rate] for s in slices])
    p, grads = _views(theta, hidden, input_dim), _views(g, hidden, input_dim)
    order = np.empty((len(slices), n), dtype=np.intp)
    live = np.ones(len(slices), dtype=bool)
    t = 0

    def freeze(which):
        """Zero the rows of the slices which selects and take them out of live; whether any slice is still live."""
        live[which] = False
        theta[which] = g[which] = m[which] = v[which] = lr[which] = 0
        return live.any()

    for done in range(1, max(last_epoch) + 1):  # the epochs done at the end of this pass
        for k in np.flatnonzero(live):
            order[k] = rows[k][rngs[k].permutation(n)]
        # np.take gathers faster than fancy indexing
        epoch_targets = np.take(targets, order + offset, axis=-1)
        for b, start in enumerate(range(0, n, batch)):
            stop = min(start + batch, n)
            X_batch = np.take(X, order[:, start:stop], axis=0)
            losses = _loss_and_grad(p, X_batch, epoch_targets[..., start:stop], loss, slope, grads)
            if not np.isfinite(losses).all():
                failed = np.flatnonzero(live & ~np.isfinite(losses))
                for k in failed:
                    errors[k] = RuntimeError(f"non-finite training loss at epoch {done - 1}, batch {b}")
                if not freeze(failed):
                    return list(zip(models, errors))
            t += 1
            theta[...], m[...], v[...] = _adam(theta, g, m, v, t, lr)
            history[:, done - 1] += losses * (stop - start)
        history[:, done - 1] /= n
        # a batch's loss is checked before its step; the weights and second
        # moments the epoch's steps leave are checked here: an inf in v stays
        # inf and turns every later update of its weight into 0
        if not (np.isfinite(theta).all() and np.isfinite(v).all()):
            bad_weights = ~np.isfinite(theta).all(axis=1)
            failed = bad_weights | ~np.isfinite(v).all(axis=1)
            for k in np.flatnonzero(failed):
                what = "weights" if bad_weights[k] else "Adam second moment"
                errors[k] = RuntimeError(f"non-finite {what} after epoch {done}")
            if not freeze(failed):
                return list(zip(models, errors))
        for k in np.flatnonzero(live & ((last_epoch == done) | (done in keep))):
            models[k][done] = Mlp(**_views(theta[k].copy(), hidden, input_dim), loss_history=history[k, :done].tolist())
        if not freeze(last_epoch == done):
            break
    return list(zip(models, errors))


def mean_loss(mlp: Mlp, data: Dataset, params: CampaignParams, loss: str) -> float:
    """Mean per-customer loss of a fixed model on a dataset."""
    if loss not in LOSS_KINDS:
        raise ValueError(f"loss must be one of {LOSS_KINDS}, got {loss!r}")
    targets = _loss_targets(loss, data.labels, params, data.clvs)
    scores, u, _ = _forward_full(mlp.params(), data.features)
    losses, _ = _losses_and_du(scores, u, targets, loss, params.slope)
    return float(losses.mean())


@dataclass(frozen=True)
class LogisticModel:
    """Linear scorer: sigmoid(w . x + b)."""

    w: np.ndarray
    b: float

    def score_batch(self, X) -> np.ndarray:
        return np.asarray(sigmoid(np.asarray(X, dtype=float) @ self.w + self.b))


def fit_logistic(data: Dataset) -> LogisticModel:
    """300 full-batch Adam cross-entropy steps at learning rate 0.05 from a zero start.

    Raises RuntimeError when a gradient overflows Adam's second moment,
    which would freeze the weights it covers.
    """
    X, y = data.features, data.labels.astype(float)
    # w and b lie end to end in one vector, stepped by train_stack's _adam
    theta, g = np.zeros(X.shape[1] + 1), np.empty(X.shape[1] + 1)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for epoch in range(300):
        u = X @ theta[:-1] + theta[-1]
        du = (sigmoid(u) - y) / len(y)
        g[:-1], g[-1] = X.T @ du, du.sum()
        theta, m, v = _adam(theta, g, m, v, epoch + 1, 0.05)
    # a second moment that is inf or NaN stays so, so one check after the last step suffices
    if not np.isfinite(v).all():
        raise RuntimeError("non-finite Adam second moment in the logistic fit")
    return LogisticModel(w=theta[:-1], b=float(theta[-1]))


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
    max_depth: int = setting(6, ge=0)
    min_leaf: int = setting(5, ge=1)

    def __post_init__(self) -> None:
        check_settings(self)


@dataclass(frozen=True)
class CartNode:
    """Decision-tree node; a leaf when feature is None."""

    score: float  # non-churner rate of the training rows at this node
    feature: int | None = None
    threshold: float = 0.0
    left: "CartNode | None" = None  # rows with value <= threshold
    right: "CartNode | None" = None


# cells of one column block in _best_split; each of its ~8 temporaries holds this many floats
_SPLIT_BLOCK_CELLS = 2**18


def _best_split(X: np.ndarray, y01: np.ndarray, min_leaf: int):
    """Lowest weighted-Gini split; ties to the first feature, lowest threshold.

    Every feature's candidate splits are scored from one argsort down the
    rows, in column blocks of at most _SPLIT_BLOCK_CELLS cells (one column
    when a column is larger), which bounds the search's temporaries. The
    sort need not be stable: tied values are never split, so the class
    counts at every valid split are the same in any order of the ties.
    """
    n = y01.size
    sizes = np.arange(1, n)[:, None]
    size_ok = (sizes >= min_leaf) & (n - sizes >= min_leaf)
    best = None  # (impurity, feature, threshold)
    width = max(1, _SPLIT_BLOCK_CELLS // n)
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
    """Score of the leaf each row of X reaches, routing row indices node by node by the rule _grow splits by."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    todo = [(tree, np.arange(X.shape[0]))]
    while todo:
        node, rows = todo.pop()
        if node.feature is None:
            out[rows] = node.score
            continue
        left = X[rows, node.feature] <= node.threshold
        todo += [(node.left, rows[left]), (node.right, rows[~left])]
    return out
