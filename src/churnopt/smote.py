"""SMOTE oversampling for imbalanced training splits.

Synthetic minority records are convex combinations x + u*(x_nn - x) of a
minority point and one of its k nearest minority neighbors, with the CLV
interpolated by the same u so features and value stay coherent. Intended
for baseline classifiers only; profit-trained models handle imbalance
through their loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._settings import check_settings, setting
from .data import Dataset
from .models import nearest_neighbors

__all__ = ["SmoteConfig", "smote_balance"]


@dataclass(frozen=True)
class SmoteConfig:
    """k_neighbors: candidates per seed point; ratio: target minority:majority."""

    k_neighbors: int = setting(5, ge=1)
    ratio: float = setting(1.0, gt=0, le=1)
    seed: int = setting(0, ge=0)

    def __post_init__(self) -> None:
        check_settings(self)


def smote_balance(train: Dataset, cfg: SmoteConfig) -> Dataset:
    """Append synthetic minority records until minority/majority ~= ratio.

    Original records are kept verbatim and precede all synthetics. The
    class ratio lands within one record of the target. Deterministic for
    a fixed seed.

    Raises:
        ValueError: single-class input, or a minority class of size 1
            (no neighbor to interpolate toward).
    """
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
        warnings.warn(
            f"k_neighbors clamped to {k} (minority class has {n_min} records)", stacklevel=2
        )
    min_idx = np.flatnonzero(labels == minority)
    Xm = train.features[min_idx]
    clv_m = train.clvs[min_idx]
    neighbors = nearest_neighbors(Xm, Xm, k, exclude_self=True)

    rng = np.random.default_rng(cfg.seed)
    a = rng.integers(n_min, size=n_new)
    slot = rng.integers(k, size=n_new)
    u = rng.uniform(0.0, 1.0, n_new)
    b = neighbors[a, slot]
    new_feats = Xm[a] + u[:, None] * (Xm[b] - Xm[a])
    new_clvs = clv_m[a] + u * (clv_m[b] - clv_m[a])

    return Dataset(
        name=train.name,
        schema=train.schema,
        features=np.vstack([train.features, new_feats]),
        labels=np.concatenate([train.labels, np.full(n_new, minority, dtype=np.int64)]),
        clvs=np.concatenate([train.clvs, new_clvs]),
    )
