"""Slow reference versions of the regret network's fast paths.

Tests compare the package against these for exact equality:

- sigmoid: the boolean-mask version that evaluates exp only on the
  non-overflowing branch of each element.
- train: the Adam loop over a dict of four parameter arrays, with the
  gradients of each array built separately.
- monte_carlo_cv: trains every (learning rate, epochs) grid point from
  scratch, with no sharing of epoch prefixes.
"""

import warnings
from dataclasses import replace

import numpy as np

from churnopt.models import (
    AdamState,
    Mlp,
    TrainConfig,
    _loss_targets,
    _losses_and_du,
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
    losses, du = _losses_and_du(scores, u, targets, loss, slope)
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
    data.require_both_classes()
    X, y, clv = data.features, data.labels, data.clvs
    targets = _loss_targets(cfg.loss, y, params, clv)
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
            p, state = adam_step(p, grads, state, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
            epoch_loss += loss * idx.size
        history.append(epoch_loss / n)
    return Mlp(**p, seed=mlp.seed, loss_history=history)


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
