"""SMOTE oversampling invariants."""

import warnings

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt.data import Dataset
from churnopt.smote import SmoteConfig, smote_balance


def make_dataset(features, labels, clvs, name="t"):
    features = np.asarray(features, dtype=float)
    return Dataset(
        name=name,
        schema=tuple(f"f{i + 1}" for i in range(features.shape[1])),
        features=features,
        labels=np.asarray(labels),
        clvs=np.asarray(clvs, dtype=float),
    )


def random_imbalanced(rng, n_min=12, n_maj=40, k_features=3):
    X = np.vstack(
        [rng.normal(0, 1, (n_min, k_features)), rng.normal(3, 1, (n_maj, k_features))]
    )
    labels = np.r_[np.zeros(n_min, int), np.ones(n_maj, int)]
    clvs = rng.uniform(5, 200, n_min + n_maj)
    return make_dataset(X, labels, clvs)


class TestSmote:
    def test_two_point_minority_synthetics_on_their_segment(self):
        ds = make_dataset(
            [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0], [6.0, 6.0]],
            [0, 0, 1, 1, 1, 1],
            [10.0, 20.0, 30.0, 30.0, 30.0, 30.0],
        )
        out = smote_balance(ds, SmoteConfig(k_neighbors=1, ratio=1.0, seed=0))
        assert len(out) == 8  # 2 synthetic churners added
        for i in range(6, 8):
            x = out.features[i]
            u = x[0]
            assert x[1] == pytest.approx(u, abs=1e-12)  # on the (0,0)-(1,1) diagonal
            assert 0.0 <= u <= 1.0
            assert out.clvs[i] == pytest.approx(10.0 + u * 10.0, abs=1e-9)
            assert out.labels[i] == 0

    def test_ratio_already_met_returns_unchanged(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1], [10.0] * 4)
        out = smote_balance(ds, SmoteConfig(seed=1))
        assert out is ds

    def test_originals_preserved_and_prefixed(self):
        rng = np.random.default_rng(2)
        ds = random_imbalanced(rng)
        out = smote_balance(ds, SmoteConfig(seed=3))
        n = len(ds)
        assert np.array_equal(out.features[:n], ds.features)
        assert np.array_equal(out.labels[:n], ds.labels)
        assert np.array_equal(out.clvs[:n], ds.clvs)
        assert np.all(out.labels[n:] == 0)

    def test_class_ratio_within_one_record(self):
        rng = np.random.default_rng(4)
        for ratio in (1.0, 0.75, 0.5):
            ds = random_imbalanced(rng, n_min=9, n_maj=41)
            out = smote_balance(ds, SmoteConfig(ratio=ratio, seed=5))
            n_min = int(np.sum(out.labels == 0))
            n_maj = int(np.sum(out.labels == 1))
            assert abs(n_min - ratio * n_maj) <= 1.0

    def test_synthetics_lie_on_neighbor_segments(self):
        rng = np.random.default_rng(6)
        ds = random_imbalanced(rng, n_min=15, n_maj=45)
        k = 5
        out = smote_balance(ds, SmoteConfig(k_neighbors=k, seed=7))
        min_idx = np.flatnonzero(ds.labels == 0)
        Xm, cm = ds.features[min_idx], ds.clvs[min_idx]
        dist = np.sqrt(((Xm[:, None, :] - Xm[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        neighbor_sets = np.argsort(dist, axis=1, kind="stable")[:, :k]

        for x, clv in zip(out.features[len(ds) :], out.clvs[len(ds) :]):
            found = False
            for a in range(len(Xm)):
                for b in neighbor_sets[a]:
                    seg = Xm[b] - Xm[a]
                    denom = float(seg @ seg)
                    u = float((x - Xm[a]) @ seg) / denom
                    if -1e-9 <= u <= 1 + 1e-9 and np.allclose(
                        x, Xm[a] + u * seg, atol=1e-9
                    ) and abs(clv - (cm[a] + u * (cm[b] - cm[a]))) < 1e-6:
                        found = True
                        break
                if found:
                    break
            assert found, "synthetic point off every minority neighbor segment"

    def test_bounding_box_property(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            ds = random_imbalanced(rng, n_min=8, n_maj=30)
            out = smote_balance(ds, SmoteConfig(seed=trial))
            minority = ds.features[ds.labels == 0]
            lo, hi = minority.min(axis=0), minority.max(axis=0)
            synth = out.features[len(ds) :]
            assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        ds = random_imbalanced(rng)
        a = smote_balance(ds, SmoteConfig(seed=11))
        b = smote_balance(ds, SmoteConfig(seed=11))
        c = smote_balance(ds, SmoteConfig(seed=12))
        assert np.array_equal(a.features, b.features) and np.array_equal(a.clvs, b.clvs)
        assert not np.array_equal(a.features, c.features)

    def test_single_class_rejected(self):
        ds = make_dataset([[0.0], [1.0]], [1, 1], [10.0, 10.0])
        with pytest.raises(ValueError, match="single class"):
            smote_balance(ds, SmoteConfig())

    def test_minority_of_one_rejected(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 1], [10.0] * 3)
        with pytest.raises(ValueError, match="size 1"):
            smote_balance(ds, SmoteConfig())

    def test_k_clamped_with_warning(self):
        ds = make_dataset(
            [[0.0, 0.0], [1.0, 0.0], [9.0, 9.0], [9.0, 8.0], [8.0, 9.0], [8.0, 8.0], [7.0, 8.0]],
            [0, 0, 1, 1, 1, 1, 1],
            [10.0] * 7,
        )
        with pytest.warns(UserWarning, match="clamped"):
            out = smote_balance(ds, SmoteConfig(k_neighbors=5, seed=0))
        assert int(np.sum(out.labels == 0)) == 5


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equals_parent_kernel(data):
    # a minority class above 128 rows puts self-exclusion on both sides of a
    # block boundary; integer-valued features and repeated rows tie distances,
    # and with a single level every row is the same point
    n_min = data.draw(st.sampled_from([2, 3, 20, 128, 129, 200]))
    n_maj = n_min + data.draw(st.integers(1, 60))
    f = data.draw(st.integers(1, 3))
    levels = data.draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    X = rng.integers(0, levels, (n_min + n_maj, f)).astype(float)
    X[n_min // 2 : n_min] = X[: n_min - n_min // 2]
    labels = np.r_[np.zeros(n_min, int), np.ones(n_maj, int)]
    order = rng.permutation(n_min + n_maj)
    ds = make_dataset(X[order], labels[order], rng.uniform(5, 200, n_min + n_maj))
    cfg = SmoteConfig(k_neighbors=data.draw(st.integers(1, 6)), ratio=1.0, seed=data.draw(st.integers(0, 99)))
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = smote_balance(ds, cfg)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = oracles.smote_balance(ds, cfg)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    for name in ("features", "labels", "clvs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
