"""Scorers: network forward/backward, Adam, training, and baselines."""

import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt import models
from churnopt.campaign import (
    CampaignParams,
    break_even_clv,
    midpoint,
    optimal_total_profit,
    prescribe,
    smooth_regret,
    total_profit,
)
from churnopt.data import Dataset, standardize
from churnopt.experiments import SyntheticSpec, generate_synthetic
from churnopt.models import (
    AdamState,
    CartConfig,
    Mlp,
    StackSlice,
    TrainConfig,
    adam_step,
    cart_scores,
    default_hidden,
    fit_cart,
    fit_logistic,
    forward_batch,
    init_mlp,
    knn_scores,
    mean_loss,
    nearest_neighbors,
    train_stack,
)

P = CampaignParams(f=1.36, d=4.25, gamma=0.3, slope=10.0)


def make_dataset(features, labels, clvs, name="toy"):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    return Dataset(
        name=name,
        schema=tuple(f"f{i + 1}" for i in range(features.shape[1])),
        features=features,
        labels=np.asarray(labels),
        clvs=np.asarray(clvs, dtype=float),
    )


def separable_dataset(rng, n, clv_low=20.0, clv_high=150.0):
    """High-CLV-aware, cleanly separable single-feature instance."""
    labels = rng.integers(0, 2, size=n)
    x = np.where(labels == 0, -2.0, 2.0) + rng.normal(0, 0.3, size=n)
    clvs = rng.uniform(clv_low, clv_high, size=n)
    return make_dataset(x, labels, clvs)


class TestInit:
    def test_same_seed_identical(self):
        a, b = init_mlp(5, 3, seed=7), init_mlp(5, 3, seed=7)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_shapes(self):
        mlp = init_mlp(24, 12, seed=0)
        assert mlp.w1.shape == (12, 24)
        assert mlp.b1.shape == (12,) and mlp.w2.shape == (12,) and mlp.b2.shape == ()
        assert np.all(mlp.b1 == 0) and mlp.b2 == 0

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_mlp(5, 3, seed=1).w1, init_mlp(5, 3, seed=2).w1)

    def test_glorot_bounds(self):
        mlp = init_mlp(8, 4, seed=3)
        assert np.all(np.abs(mlp.w1) <= math.sqrt(6 / 12))
        assert np.all(np.abs(mlp.w2) <= math.sqrt(6 / 5))

    def test_default_hidden(self):
        assert default_hidden(24) == 12
        assert default_hidden(5) == 3
        assert default_hidden(1) == 1


class TestForward:
    def test_zero_network_scores_half(self):
        mlp = Mlp(w1=np.zeros((3, 2)), b1=np.zeros(3), w2=np.zeros(3), b2=np.zeros(()))
        assert forward_batch(mlp, np.array([[1.0, -4.0]]))[0] == 0.5

    def test_saturated_bias(self):
        mlp = Mlp(w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=np.asarray(50.0))
        assert forward_batch(mlp, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_hand_computed_2_2_1(self):
        mlp = Mlp(
            w1=np.array([[1.0, -1.0], [0.5, 2.0]]),
            b1=np.array([0.1, -0.2]),
            w2=np.array([1.5, -0.5]),
            b2=np.asarray(0.3),
        )
        x = [0.4, -0.6]
        u = 1.5 * math.tanh(1.1) - 0.5 * math.tanh(-1.2) + 0.3
        expected = 1.0 / (1.0 + math.exp(-u))
        assert forward_batch(mlp, np.array([x]))[0] == pytest.approx(expected, rel=1e-15)

    def test_scale_stable(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mlp = Mlp(
                w1=rng.uniform(-10, 10, (4, 3)),
                b1=rng.uniform(-10, 10, 4),
                w2=rng.uniform(-10, 10, 4),
                b2=np.asarray(rng.uniform(-10, 10)),
            )
            scores = forward_batch(mlp, rng.uniform(-10, 10, (20, 3)))
            # saturated outputs may round to the interval endpoints in
            # float64; the contract is finiteness and the [0, 1] range
            assert np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_batch(init_mlp(3, 2, 0), np.array([[1.0, 2.0]]))


class TestAdam:
    def test_first_step_magnitude(self):
        p = {"x": np.asarray(1.0)}
        state = AdamState.zeros_like(p)
        new, state = adam_step(p, {"x": np.asarray(1.0)}, state, learning_rate=0.001)
        # m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
        assert float(new["x"]) == pytest.approx(1.0 - 0.001, rel=1e-7)
        assert state.t == 1

    def test_zero_gradient_no_change(self):
        p = {"x": np.array([1.0, -2.0])}
        new, _ = adam_step(p, {"x": np.zeros(2)}, AdamState.zeros_like(p), 0.1)
        assert np.array_equal(new["x"], p["x"])

    def test_sign_symmetry(self):
        p = {"x": np.asarray(0.0)}
        up, _ = adam_step(p, {"x": np.asarray(3.0)}, AdamState.zeros_like(p), 0.01)
        down, _ = adam_step(p, {"x": np.asarray(-3.0)}, AdamState.zeros_like(p), 0.01)
        assert float(up["x"]) == pytest.approx(-float(down["x"]), rel=1e-12)


class TestTrain:
    def test_single_step_matches_hand_unrolled(self):
        # zero start: all scores are 0.5, hidden path carries no gradient,
        # so one full-batch step moves only b2
        ds = make_dataset([[1.0], [2.0], [-1.0], [0.5]], [0, 1, 0, 1], [85.0, 40.0, 12.0, 200.0])
        mlp = Mlp(w1=np.zeros((2, 1)), b1=np.zeros(2), w2=np.zeros(2), b2=np.zeros(()))
        cfg = TrainConfig(learning_rate=0.001, epochs=1, batch_size=4, loss="smooth-regret", seed=0)
        [(models, error)] = train_stack(ds, [StackSlice(mlp, P, cfg)])
        assert error is None
        out = models[1]

        s = P.slope
        du = []
        for y, clv in zip(ds.labels, ds.clvs):
            m = (P.f + P.gamma * (P.d - clv)) / (P.gamma * (P.d - clv) - P.d)
            sig = 1.0 / (1.0 + math.exp(-s * (0.5 - m)))
            coeff = P.f + y * P.d + (1 - y) * P.gamma * (P.d - clv)
            dscore = coeff * (-s) * (1 - sig) * sig
            du.append(dscore * 0.25)
        g = sum(du) / 4.0
        expected_b2 = -0.001 * g / (abs(g) + 1e-8)
        assert float(out.b2) == pytest.approx(expected_b2, rel=1e-9)
        assert np.all(out.w1 == 0) and np.all(out.b1 == 0) and np.all(out.w2 == 0)
        assert len(out.loss_history) == 1

    def test_separable_reaches_near_optimal_profit(self):
        rng = np.random.default_rng(5)
        train_ds = separable_dataset(rng, 160)
        test_ds = separable_dataset(rng, 80)
        mlp = init_mlp(1, 4, seed=1)
        cfg = TrainConfig(learning_rate=0.05, epochs=150, loss="smooth-regret", seed=1)
        [(models, error)] = train_stack(train_ds, [StackSlice(mlp, P, cfg)])
        assert error is None
        scores = forward_batch(models[cfg.epochs], test_ds.features)
        decisions = prescribe(scores, midpoint(P, test_ds.clvs))
        achieved = total_profit(decisions, test_ds.labels, P, test_ds.clvs)
        optimal = optimal_total_profit(test_ds.labels, P, test_ds.clvs)
        assert achieved >= 0.95 * optimal

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(6)
        ds = separable_dataset(rng, 60)
        cfg = TrainConfig(learning_rate=0.01, epochs=8, batch_size=16, seed=9)
        [(a, _)] = train_stack(ds, [StackSlice(init_mlp(1, 3, seed=2), P, cfg)])
        [(b, _)] = train_stack(ds, [StackSlice(init_mlp(1, 3, seed=2), P, cfg)])
        a, b = a[cfg.epochs], b[cfg.epochs]
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b1, b.b1)
        assert np.array_equal(a.w2, b.w2) and np.array_equal(a.b2, b.b2)
        assert a.loss_history == b.loss_history

    def test_below_break_even_never_targets(self):
        rng = np.random.default_rng(7)
        n = 50
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        clvs = rng.uniform(1.0, break_even_clv(P) - 0.1, n)
        ds = make_dataset(rng.normal(size=(n, 2)), labels, clvs)
        [(models, error)] = train_stack(ds, [StackSlice(init_mlp(2, 2, seed=0), P, TrainConfig(epochs=20, seed=0))])
        assert error is None
        scores = forward_batch(models[20], ds.features)
        assert np.all(prescribe(scores, midpoint(P, ds.clvs)) == 0)

    def test_non_finite_loss_aborts_with_location(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1], [85.0, 85.0])
        mlp = init_mlp(1, 2, seed=0)
        mlp.w1[0, 0] = np.nan
        [(models, error)] = train_stack(ds, [StackSlice(mlp, P, TrainConfig(epochs=1, seed=0))])
        assert models == {}
        assert isinstance(error, RuntimeError) and "epoch 0, batch 0" in str(error)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_weights_non_finite_after_the_last_step_fail_the_slice(self):
        # every batch loss is finite, but the third epoch's last Adam step overflows the weights
        spec = SyntheticSpec(name="x", n_train=200, n_test=60, n_features=4, seed=3)
        train, _ = standardize(*generate_synthetic(spec))
        params = CampaignParams(f=1.36, d=4.25, gamma=0.3)
        cfg = TrainConfig(learning_rate=1e308, epochs=3, seed=0)
        healthy = TrainConfig(learning_rate=0.01, epochs=3, seed=1)
        runs = train_stack(train, [StackSlice(init_mlp(4, 2, seed=0), params, cfg),
                                   StackSlice(init_mlp(4, 2, seed=1), params, healthy)], keep=(1, 2))
        [(models, error), (kept, fine)] = runs
        assert sorted(models) == [1, 2] and str(error) == "non-finite weights after epoch 3"
        assert fine is None and sorted(kept) == [1, 2, 3]
        for e, model in models.items():
            assert_same_net(model, oracles.train(init_mlp(4, 2, seed=0), train, params, replace(cfg, epochs=e)), e)
        with pytest.raises(RuntimeError, match="^non-finite weights after epoch 3$"):
            oracles.train(init_mlp(4, 2, seed=0), train, params, cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_adam_second_moment_overflow_fails_the_slice(self):
        # CLVs near 1e200 square past the float range in v on the first step; every later update
        # of the weights would then be 0, and the returned net its start
        spec = SyntheticSpec(name="a", n_train=200, n_test=60, n_features=4, clv_mean=1e200, seed=0)
        train, test = generate_synthetic(spec)
        params = CampaignParams(f=1.36, d=float(train.clvs.mean()) / 10, gamma=0.3)
        train, _ = standardize(train, test)
        cfg = TrainConfig(epochs=3, seed=0)
        # at rate 1e308 the same first step also leaves the weights non-finite, and that message wins
        fast = TrainConfig(learning_rate=1e308, epochs=3, seed=0)
        runs = train_stack(train, [StackSlice(init_mlp(4, 2, seed=0), params, c) for c in (cfg, fast)], keep=(1, 2))
        messages = ["non-finite Adam second moment after epoch 1", "non-finite weights after epoch 1"]
        assert [(models, str(error)) for models, error in runs] == [({}, message) for message in messages]
        for c, message in zip((cfg, fast), messages):
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                oracles.train(init_mlp(4, 2, seed=0), train, params, c)

    def test_single_class_rejected(self):
        ds = make_dataset([[1.0], [2.0]], [1, 1], [85.0, 85.0])
        with pytest.raises(ValueError, match="single class"):
            train_stack(ds, [StackSlice(init_mlp(1, 2, seed=0), P, TrainConfig(epochs=1))])

    def test_cross_entropy_loss_decreases_on_easy_data(self):
        rng = np.random.default_rng(8)
        ds = separable_dataset(rng, 100)
        cfg = TrainConfig(learning_rate=0.05, epochs=30, loss="cross-entropy", seed=3)
        [(models, error)] = train_stack(ds, [StackSlice(init_mlp(1, 3, seed=3), P, cfg)])
        assert error is None
        model = models[30]
        assert model.loss_history[-1] < model.loss_history[0]
        assert mean_loss(model, ds, P, "cross-entropy") == pytest.approx(
            model.loss_history[-1], rel=0.5
        )


def random_training_set(rng, n, k):
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    return make_dataset(rng.normal(size=(n, k)), labels, rng.uniform(5.0, 300.0, n))


def assert_same_net(got, want, context):
    """Bit for bit."""
    for name in ("w1", "b1", "w2", "b2"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), (context, name)
    assert np.array(got.loss_history).tobytes() == np.array(want.loss_history).tobytes(), context


class TestFlatTrainingMatchesOracle:
    """A stack of one flat parameter row against the dict-based Adam loop of tests/oracles.py.

    Checked bit for bit under OpenBLAS's SkylakeX, Haswell and Sandybridge
    kernels. Known to fail under Katmai (OPENBLAS_CORETYPE=Prescott), whose
    products round their last bit by operand alignment (ROADMAP item 11).
    """

    @pytest.mark.parametrize("loss", ["smooth-regret", "cross-entropy"])
    @pytest.mark.parametrize("batching", ["full", "divides", "remainder"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_every_epoch_bit_identical(self, loss, batching, data):
        batch = data.draw(st.integers(2, 9))
        n = batch * data.draw(st.integers(1, 5))
        if batching == "remainder":
            n += data.draw(st.integers(1, batch - 1))
        k, hidden = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**16))
        ds = random_training_set(np.random.default_rng(seed), n, k)
        cfg = TrainConfig(
            learning_rate=data.draw(st.sampled_from([0.001, 0.03, 0.5])),
            epochs=data.draw(st.integers(1, 4)),
            batch_size=None if batching == "full" else batch,
            loss=loss,
            seed=seed,
        )
        mlp = init_mlp(k, hidden, seed=seed + 1)
        [(models, error)] = train_stack(ds, [StackSlice(mlp, P, cfg)], keep=range(1, cfg.epochs))
        assert error is None and sorted(models) == list(range(1, cfg.epochs + 1))
        for e, model in models.items():
            assert_same_net(model, oracles.train(mlp, ds, P, replace(cfg, epochs=e)), e)
        [(alone, _)] = train_stack(ds, [StackSlice(mlp, P, cfg)])
        assert_same_net(alone[cfg.epochs], models[cfg.epochs], "no keep")
        fresh = init_mlp(k, hidden, seed=seed + 1)
        assert all(np.array_equal(a, b) for a, b in zip(mlp.params().values(), fresh.params().values()))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
class TestStackEqualsSolo:
    """Every slice of a stack against tests/oracles.train run on that slice alone.

    The slice at learning rate 1e308 overflows by design; both sides warn.
    Checked bit for bit under OpenBLAS's SkylakeX, Haswell and Sandybridge
    kernels. Known to fail under Katmai (OPENBLAS_CORETYPE=Prescott), whose
    products round their last bit by operand alignment: a slice's operands
    are views into the stack, aligned differently from the lone net's
    fresh arrays (ROADMAP item 11).
    """

    @pytest.mark.parametrize("loss", ["smooth-regret", "cross-entropy"])
    @pytest.mark.parametrize("batching", ["full", "divides", "remainder"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_each_slice_bit_identical(self, loss, batching, data):
        batch = data.draw(st.integers(2, 9))
        n_rows = batch * data.draw(st.integers(1, 4))
        if batching == "remainder":
            n_rows += data.draw(st.integers(1, batch - 1))
        k, hidden = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        ds = random_training_set(rng, n_rows + data.draw(st.integers(0, 6)), k)
        n_slices = data.draw(st.integers(2, 5))
        diverging = data.draw(st.integers(0, n_slices - 1))
        slices = []
        for i in range(n_slices):
            # each slice trains on its own rows, with both classes, against its own d
            rows = np.concatenate([[0, 1], 2 + rng.permutation(len(ds) - 2)[: n_rows - 2]])
            cfg = TrainConfig(
                learning_rate=1e308 if i == diverging else data.draw(st.sampled_from([0.001, 0.03, 0.5])),
                epochs=data.draw(st.integers(1, 4)),
                batch_size=None if batching == "full" else batch,
                loss=loss,
                seed=data.draw(st.integers(0, 2**16)),
            )
            params = replace(P, d=data.draw(st.sampled_from([2.0, 4.25, 12.5])))
            slices.append(StackSlice(init_mlp(k, hidden, seed=seed + i), params, cfg, rows=rng.permutation(rows)))
        runs = train_stack(ds, slices, keep=range(1, 5))
        for i, (s, (models, error)) in enumerate(zip(slices, runs)):
            alone = ds.subset(s.rows)
            for e in range(1, s.cfg.epochs + 1):
                try:
                    want = oracles.train(s.init, alone, s.params, replace(s.cfg, epochs=e))
                except RuntimeError as exc:
                    assert str(error) == str(exc) and e not in models, (i, e)
                    break
                assert_same_net(models[e], want, (i, e))
            else:
                assert error is None and max(models) == s.cfg.epochs, i

    def test_diverging_slice_fails_alone_mid_epoch(self):
        # at learning rate 1e308 the cross-entropy of the second batch overflows
        ds = random_training_set(np.random.default_rng(3), 40, 3)
        slices = [
            StackSlice(init_mlp(3, 2, seed=i), P, TrainConfig(lr, epochs=3, batch_size=8, loss="cross-entropy", seed=i))
            for i, lr in enumerate([0.03, 1e308, 0.5])
        ]
        # the failed slice's row trains on without a warning of its own
        with warnings.catch_warnings(record=True) as stacked:
            warnings.simplefilter("always")
            runs = train_stack(ds, slices, keep=(1, 2))
        with warnings.catch_warnings(record=True) as solo:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="epoch 0, batch 1") as alone:
                oracles.train(slices[1].init, ds, P, slices[1].cfg)
        assert runs[1][0] == {} and str(runs[1][1]) == str(alone.value)
        runtime = [[w for w in caught if issubclass(w.category, RuntimeWarning)] for caught in (stacked, solo)]
        assert len(runtime[0]) == len(runtime[1]) > 0
        for s, (models, error) in zip(slices[::2], runs[::2]):
            assert error is None and sorted(models) == [1, 2, 3]
            for e, model in models.items():
                assert_same_net(model, oracles.train(s.init, ds, P, replace(s.cfg, epochs=e)), e)

    def test_slices_leave_after_their_own_epochs(self):
        ds = random_training_set(np.random.default_rng(4), 30, 2)
        slices = [StackSlice(init_mlp(2, 3, seed=i), P, TrainConfig(0.03, epochs=e, seed=i)) for i, e in enumerate([4, 1, 3])]
        for s, (models, error) in zip(slices, train_stack(ds, slices, keep=(2,))):
            assert error is None and sorted(models) == sorted({min(2, s.cfg.epochs), s.cfg.epochs})
            for e, model in models.items():
                assert_same_net(model, oracles.train(s.init, ds, P, replace(s.cfg, epochs=e)), e)

    def test_rejects_mismatched_slices(self):
        ds = random_training_set(np.random.default_rng(0), 12, 2)
        net = init_mlp(2, 3, seed=0)
        base = StackSlice(net, P, TrainConfig(epochs=1))
        for other in (
            replace(base, init=init_mlp(2, 2, seed=0)),
            replace(base, cfg=TrainConfig(epochs=1, loss="cross-entropy")),
            replace(base, cfg=TrainConfig(epochs=1, batch_size=4)),
            replace(base, params=replace(P, slope=5.0)),
            replace(base, rows=np.arange(10)),
        ):
            with pytest.raises(ValueError, match="must share"):
                train_stack(ds, [base, other])
        with pytest.raises(ValueError, match="at least one net"):
            train_stack(ds, [])

    def test_single_class_rows_rejected(self):
        ds = make_dataset(np.arange(6.0), [0, 1, 1, 1, 0, 1], np.full(6, 85.0))
        with pytest.raises(ValueError, match="single class"):
            train_stack(ds, [StackSlice(init_mlp(1, 2, seed=0), P, TrainConfig(epochs=1), rows=np.array([1, 2, 3]))])


TWO_FEATURES = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1], [10.0, 20.0])
LOSS_MESSAGE = "loss must be one of ('smooth-regret', 'cross-entropy'), got 'hinge'"


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: TrainConfig(loss="hinge"), LOSS_MESSAGE),
            (lambda: mean_loss(init_mlp(2, 3), TWO_FEATURES, P, "hinge"), LOSS_MESSAGE),
            (lambda: init_mlp(0, 3), "input_dim and hidden_dim must be >= 1"),
            (lambda: init_mlp(2, 0), "input_dim and hidden_dim must be >= 1"),
            (lambda: train_stack(TWO_FEATURES, [StackSlice(init_mlp(3, 2), P, TrainConfig(epochs=1))]),
             "model expects 3 features, data has 2"),
        ],
        ids=["train-config-loss", "mean-loss-kind", "init-input-dim", "init-hidden-dim", "stack-feature-count"],
    )
    def test_bad_argument_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestGradientCheck:
    def test_smooth_regret_loss(self):
        rng = np.random.default_rng(9)
        mlp = init_mlp(4, 3, seed=4)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, 12)
        clv = rng.uniform(10, 200, 12)
        assert oracles.gradient_check(mlp, "smooth-regret", X, y, clv, P) < 1e-5

    def test_cross_entropy_loss(self):
        rng = np.random.default_rng(10)
        mlp = init_mlp(4, 3, seed=5)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, 12)
        clv = rng.uniform(10, 200, 12)
        assert oracles.gradient_check(mlp, "cross-entropy", X, y, clv, P) < 1e-5

    def test_saturated_point_absolute_error(self):
        # a hugely positive output bias saturates the logistic; the
        # cross-entropy gradient w.r.t. w2 on an all-ones batch is ~0
        mlp = Mlp(w1=np.zeros((1, 1)), b1=np.zeros(1), w2=np.zeros(1), b2=np.asarray(40.0))
        X = np.array([[1.0], [2.0]])
        err = oracles.gradient_check(mlp, "cross-entropy", X, np.array([1, 1]), np.array([85.0, 85.0]), P)
        assert err < 1e-8

    def test_many_random_nets_both_losses(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            h = int(rng.integers(1, 5))
            mlp = init_mlp(k, h, seed=trial)
            n = int(rng.integers(2, 10))
            X = rng.normal(size=(n, k))
            y = rng.integers(0, 2, n)
            clv = rng.uniform(10, 300, n)
            loss = "smooth-regret" if trial % 2 == 0 else "cross-entropy"
            assert oracles.gradient_check(mlp, loss, X, y, clv, P) < 1e-5

    def test_h_bounds(self):
        mlp = init_mlp(2, 2, seed=0)
        with pytest.raises(ValueError):
            oracles.gradient_check(mlp, "cross-entropy", np.zeros((1, 2)), [1], [85.0], P, h=1e-2)


class TestOneLossSource:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mean_loss_is_the_campaign_smooth_regret(self, data):
        n = data.draw(st.integers(1, 12))
        f = float(data.draw(st.integers(0, 5)))
        d = float(data.draw(st.integers(1, 20)))
        gamma = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
        params = CampaignParams(f=f, d=d, gamma=gamma, slope=data.draw(st.floats(0.1, 100.0)))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        clvs = np.array(data.draw(st.lists(st.floats(0.5, 500.0), min_size=n, max_size=n)))
        # small integers and a power-of-two gamma make this midpoint exactly 0.5
        clvs[0] = d + (d + 2 * f) / gamma
        assert midpoint(params, clvs[0]) == 0.5
        X = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        mlp = init_mlp(2, 3, seed=data.draw(st.integers(0, 2**16)))
        if data.draw(st.booleans()):
            mlp.w2 = np.zeros(3)  # every score is sigmoid(0) = 0.5: customer 0 sits on its midpoint
        expected = np.mean(smooth_regret(labels, forward_batch(mlp, X), params, clvs))
        assert mean_loss(mlp, make_dataset(X, labels, clvs), params, "smooth-regret") == expected


class TestLogistic:
    def test_separable_1d(self):
        ds = make_dataset([-2.0, -1.5, 1.5, 2.0], [0, 0, 1, 1], [10.0] * 4)
        model = fit_logistic(ds)
        scores = model.score_batch(ds.features)
        assert np.all((scores <= 0.5) == (ds.labels == 0))

    def test_symmetric_data_keeps_zero_weights(self):
        ds = make_dataset([-1.0, -1.0, 1.0, 1.0], [0, 1, 0, 1], [10.0] * 4)
        model = fit_logistic(ds)
        assert model.w[0] == 0.0 and model.b == 0.0  # gradients cancel exactly

    def test_weight_sign_follows_class_order(self):
        ds = make_dataset([-2.0, -1.0, 1.0, 2.0], [0, 0, 1, 1], [10.0] * 4)
        assert fit_logistic(ds).w[0] > 0


def assert_same_logistic(got, want):
    assert (got.w.shape, got.w.dtype, got.w.tobytes()) == (want.w.shape, want.w.dtype, want.w.tobytes())
    assert np.array(got.b).tobytes() == np.array(want.b).tobytes()


class TestLogisticMatchesOracle:
    """The flat Adam vector of models.fit_logistic against the dict-based loop of tests/oracles.py."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_bits(self, data):
        n, k = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 4))
        # a few distinct values, so rows and features tie
        values = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))
        X = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * k, max_size=n * k))).reshape(n, k)
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        ds = make_dataset(X, labels, np.full(n, 10.0))
        assert_same_logistic(fit_logistic(ds), oracles.fit_logistic(ds))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_raises_when_adam_second_moment_overflows(self):
        # the gradient's square overflows, so Adam's second moment is inf and
        # every step is 0: the oracle keeps the zero start without a word
        ds = make_dataset([1e308, -1e308], [0, 1], [10.0, 10.0])
        want = oracles.fit_logistic(ds)
        assert want.w[0] == 0.0 and want.b == 0.0
        with pytest.raises(RuntimeError, match="^non-finite Adam second moment in the logistic fit$"):
            fit_logistic(ds)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_same_error_on_non_finite_loss(self):
        # Dataset refuses a NaN feature, but keeps a view of the caller's
        # array, so one written afterwards reaches the fit
        X = np.array([[1.0], [2.0]])
        ds = make_dataset(X, [0, 1], [10.0, 10.0])
        X[1, 0] = np.nan
        with pytest.raises(RuntimeError, match="^non-finite Adam second moment in the logistic fit$"):
            fit_logistic(ds)
        with pytest.raises(RuntimeError, match="^non-finite logistic loss at epoch 0$"):
            oracles.fit_logistic(ds)


class TestKnn:
    def test_query_on_training_point_k1(self):
        ds = make_dataset([[0.0, 0.0], [5.0, 5.0]], [0, 1], [10.0, 10.0])
        assert knn_scores(ds, [[0.0, 0.0]], 1)[0] == 0.0
        assert knn_scores(ds, [[5.0, 5.0]], 1)[0] == 1.0

    def test_k_equals_n_gives_class_rate(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1], [10.0] * 4)
        assert knn_scores(ds, [[99.0]], 4)[0] == 0.75

    def test_three_point_hand_instance(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [1, 1, 0], [10.0] * 3)
        assert knn_scores(ds, [[0.5]], 3)[0] == pytest.approx(2.0 / 3.0)

    def test_invariant_under_training_permutation(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        clv = rng.uniform(5, 50, 20)
        ds = make_dataset(X, y, clv)
        perm = rng.permutation(20)
        ds_p = make_dataset(X[perm], y[perm], clv[perm])
        queries = rng.normal(size=(10, 3))
        assert np.array_equal(knn_scores(ds, queries, 5), knn_scores(ds_p, queries, 5))

    def test_invalid_k(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1], [10.0, 10.0])
        for k in (0, 3):
            with pytest.raises(ValueError):
                knn_scores(ds, [[0.0]], k)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_parent_kernel(self, data):
        # integer-valued features and repeated rows make distance ties the rule;
        # more than 128 queries span several blocks of the shared kernel
        n, f = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 4))
        n_query = data.draw(st.sampled_from([0, 1, 127, 128, 129, 300]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = rng.integers(-2, 3, (n, f)).astype(float)
        X[n // 2 :] = X[: n - n // 2]
        ds = make_dataset(X, rng.integers(0, 2, n), np.full(n, 10.0))
        repeats = X[rng.integers(n, size=n_query // 2)]
        queries = np.vstack([repeats, rng.integers(-3, 4, (n_query - len(repeats), f))])
        k = data.draw(st.integers(1, n))
        got, want = knn_scores(ds, queries, k), oracles.knn_scores(ds, queries, k)
        assert got.shape == want.shape and np.array_equal(got, want)


class TestNearestNeighbors:
    # Real-valued features: with 8 or more of them, adding the squared
    # terms in any order but numpy's pairwise one changes some distance
    # bits. Rounded and duplicated rows put ties at the k-th distance.
    FEATURES = [1, 2, 7, 8, 9, 16, 24, 129, 300]

    @staticmethod
    def draw_rows(data, rng, n, f):
        X = rng.standard_normal((n, f)) * rng.uniform(0.1, 10.0, f)
        decimals = data.draw(st.sampled_from([None, 0, 1]))
        if decimals is not None:
            X = np.round(X, decimals)
        copies = rng.integers(n, size=n // 3)
        X[rng.choice(n, size=n // 3, replace=False)] = X[copies]
        return X

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_oracle(self, data):
        # A common offset cancels in |q|^2 + |r|^2 - 2 q.r, magnitudes near
        # 1e154 overflow the screen's bound (and some squared distances),
        # 1e-160 underflows the squared terms, and 90 reference rows of 129
        # or 300 features shrink the query blocks below 64 rows.
        f = data.draw(st.sampled_from(self.FEATURES))
        exclude_self = data.draw(st.booleans())
        scale = data.draw(st.sampled_from([1.0, 1e154, 1e-160]))
        offset = data.draw(st.sampled_from([0.0, 1e6]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        if exclude_self:
            # the queries are ref itself, so ref's size is the query count
            ref = queries = self.draw_rows(data, rng, data.draw(st.sampled_from([2, 3, 20, 63, 64, 65, 127, 128, 129])), f)
        else:
            ref = self.draw_rows(data, rng, data.draw(st.integers(1, 40) | st.just(90)), f)
            n_query = data.draw(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]))
            repeats = ref[rng.integers(len(ref), size=n_query // 2)]
            queries = np.vstack([repeats, self.draw_rows(data, rng, n_query - len(repeats), f)])
        ref, queries = ref * scale + offset, queries * scale + offset
        k = data.draw(st.integers(1, len(ref) - exclude_self))
        with np.errstate(over="ignore"):  # squared distances past the float range are inf in both
            got = nearest_neighbors(ref, queries, k, exclude_self)
            want = oracles.nearest_neighbors(ref, queries, k, exclude_self)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_boundary_tie_keeps_lower_index(self):
        ref = np.array([[0.0], [1.0], [-1.0], [2.0]])
        # k=2: three rows lie within the 2nd distance, so the full sort decides
        assert nearest_neighbors(ref, np.array([[0.0]]), 2).tolist() == [[0, 1]]
        # k=3: exactly three rows lie within the 3rd distance
        assert nearest_neighbors(ref, np.array([[0.0]]), 3).tolist() == [[0, 1, 2]]

    def test_no_features_keeps_index_order(self):
        ref, queries = np.zeros((4, 0)), np.zeros((3, 0))
        got = nearest_neighbors(ref, queries, 2)
        assert np.array_equal(got, oracles.nearest_neighbors(ref, queries, 2))
        assert got.tolist() == [[0, 1]] * 3

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError, match=r"\(2, 4\).*\(n, 3\)"):
            nearest_neighbors(np.zeros((5, 3)), np.zeros((2, 4)), 1)

    def test_non_finite_input(self):
        ref = np.arange(8.0).reshape(4, 2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                nearest_neighbors(ref, np.array([[0.0, bad]]), 1)
            with pytest.raises(ValueError, match="finite"):
                nearest_neighbors(np.vstack([ref, [bad, 0.0]]), ref, 1)

    def test_one_dimensional_ref(self):
        with pytest.raises(ValueError, match=r"ref has shape \(4,\)"):
            nearest_neighbors(np.arange(4.0), np.zeros((2, 1)), 1)

    def test_k_outside_range(self):
        ref = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=r"k must be in \[1, 3\], got 4"):
            nearest_neighbors(ref, ref, 4, exclude_self=True)
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\], got 0"):
            nearest_neighbors(ref, ref[:1], 0)
        assert nearest_neighbors(ref, ref[:1], 4).tolist() == [[0, 1, 2, 3]]


class TestCart:
    def test_pure_node_is_leaf(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [1, 1, 1], [10.0] * 3)
        tree = fit_cart(ds, CartConfig(max_depth=3, min_leaf=1))
        assert tree.feature is None and tree.score == 1.0

    def test_perfect_single_split(self):
        x = np.column_stack([np.r_[np.zeros(6), np.ones(6)], np.arange(12.0)])
        labels = np.r_[np.zeros(6, int), np.ones(6, int)]
        ds = make_dataset(x, labels, np.full(12, 10.0))
        tree = fit_cart(ds, CartConfig(max_depth=4, min_leaf=2))
        assert tree.feature == 0
        assert tree.left.feature is None and tree.right.feature is None
        scores = cart_scores(tree, ds.features)
        assert np.all((scores <= 0.5) == (labels == 0))

    def test_depth_zero_is_root_rate(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1], [10.0] * 4)
        tree = fit_cart(ds, CartConfig(max_depth=0, min_leaf=1))
        assert tree.feature is None and tree.score == 0.75

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(14)
        ds = make_dataset(rng.normal(size=(40, 2)), rng.integers(0, 2, 40), rng.uniform(5, 50, 40))
        tree = fit_cart(ds, CartConfig(max_depth=8, min_leaf=5))

        def leaf_sizes(node, idx):
            if node.feature is None:
                return [len(idx)]
            mask = ds.features[idx, node.feature] <= node.threshold
            return leaf_sizes(node.left, idx[mask]) + leaf_sizes(node.right, idx[~mask])

        assert min(leaf_sizes(tree, np.arange(40))) >= 5

    def test_score_walks_correct_branch(self):
        ds = make_dataset([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1], [10.0] * 4)
        tree = fit_cart(ds, CartConfig(max_depth=2, min_leaf=1))
        assert cart_scores(tree, [[0.5], [10.5]]).tolist() == [0.0, 1.0]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_tree_equals_oracle(self, data):
        # rounded values, duplicated rows and columns and constant columns
        # tie thresholds and impurities; min_leaf sits at and around n / 2
        n, f = data.draw(st.integers(2, 80)), data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = rng.standard_normal((n, f)) * 3
        decimals = data.draw(st.sampled_from([None, 0, 1]))
        if decimals is not None:
            X = np.round(X, decimals)
        X[rng.choice(n, size=n // 3, replace=False)] = X[rng.integers(n, size=n // 3)]
        X[:, rng.integers(f, size=f // 2)] = X[:, rng.integers(f, size=f // 2)]
        X[:, rng.random(f) < 0.2] = 1.5
        labels = rng.integers(0, 2, n)
        min_leaf = data.draw(st.sampled_from([1, 2, 5, max(1, n // 2 - 1), max(1, n // 2), n // 2 + 1, n]))
        cfg = CartConfig(max_depth=data.draw(st.integers(0, 6)), min_leaf=min_leaf)
        ds = make_dataset(X, labels, np.full(n, 10.0))
        y01 = (labels == 1).astype(float)
        assert models._best_split(X, y01, min_leaf) == oracles.best_split(X, y01, min_leaf)
        with mock.patch.object(models, "_best_split", oracles.best_split):
            want = fit_cart(ds, cfg)
        assert fit_cart(ds, cfg) == want

    def test_wide_split_spans_column_blocks(self):
        # 1100 rows put 238 features in a 2**18-cell block: the separating
        # feature 1000 lies in the fifth block, and its copy 700 in the
        # third ties with it and wins as the lower feature
        rng = np.random.default_rng(15)
        y01 = (rng.random(1100) < 0.5).astype(float)
        X = rng.standard_normal((1100, 1001))
        X[:, 1000] = y01 + 0.1 * rng.random(1100)
        want = oracles.best_split(X, y01, 5)
        assert want[1] == 1000 and models._best_split(X, y01, 5) == want
        X[:, 700] = X[:, 1000]
        want = oracles.best_split(X, y01, 5)
        assert want[1] == 700 and models._best_split(X, y01, 5) == want

    def test_one_column_blocks_grow_the_same_tree(self, monkeypatch):
        # 200 x 6 is one block by default; columns 3 and 5 copy columns 1
        # and 2, so every split on them ties with the lower feature's
        rng = np.random.default_rng(16)
        X = np.round(rng.standard_normal((200, 6)) * 2, 1)
        labels = (X[:, 1] + 0.5 * X[:, 2] + rng.standard_normal(200) > 0).astype(int)
        X[:, 3], X[:, 5] = X[:, 1], X[:, 2]
        ds, cfg = make_dataset(X, labels, np.full(200, 10.0)), CartConfig(max_depth=6, min_leaf=2)
        assert X.size <= models._SPLIT_BLOCK_CELLS
        want = fit_cart(ds, cfg)
        monkeypatch.setattr(models, "_SPLIT_BLOCK_CELLS", 1)

        def features(node):
            return [] if node.feature is None else [node.feature, *features(node.left), *features(node.right)]

        assert fit_cart(ds, cfg) == want and {1, 2} <= set(features(want)) and not {3, 5} & set(features(want))

    def test_threshold_value_goes_left(self):
        tree = models.CartNode(0.5, feature=1, threshold=1.0, left=models.CartNode(0.25), right=models.CartNode(0.75))
        X = [[9.0, 1.0], [-9.0, np.nextafter(1.0, 2.0)], [0.0, 0.5]]
        assert cart_scores(tree, X).tolist() == [0.25, 0.75, 0.25]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scores_equal_oracle(self, data):
        # rounded training values give rounded thresholds; some query
        # values are set to a node's threshold, and a query may have 0 rows
        n, f = data.draw(st.integers(2, 60)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = np.round(rng.standard_normal((n, f)) * 3, data.draw(st.sampled_from([0, 1])))
        ds = make_dataset(X, rng.integers(0, 2, n), np.full(n, 10.0))
        tree = fit_cart(ds, CartConfig(max_depth=data.draw(st.integers(0, 5)), min_leaf=1))
        Q = np.round(rng.standard_normal((data.draw(st.integers(0, 40)), f)) * 3, 1)
        todo = [tree]
        while todo and len(Q):
            node = todo.pop()
            if node.feature is not None:
                Q[rng.integers(len(Q), size=len(Q) // 3 + 1), node.feature] = node.threshold
                todo += [node.left, node.right]
        got = cart_scores(tree, Q)
        assert got.shape == (len(Q),) and np.array_equal(got, oracles.cart_scores(tree, Q))
