"""Synthetic generation, cross-validation, and the benchmark engine."""

import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt import experiments as ex
from churnopt._settings import config_key
from churnopt.campaign import CampaignParams, midpoint, optimal_total_profit, prescribe, total_profit
from churnopt.data import Dataset, standardize
from churnopt.metrics import accuracy
from churnopt.models import StackSlice, TrainConfig, default_hidden, fit_logistic, forward_batch, init_mlp, train_stack

P = CampaignParams(f=1.36, d=4.25, gamma=0.3, slope=10.0)


def small_benchmark_inputs(n_datasets=2, seed0=50):
    datasets = []
    for i in range(n_datasets):
        spec = ex.SyntheticSpec(
            name=f"ds{i}",
            n_train=80,
            n_test=40,
            n_features=3,
            churn_rate=0.3,
            clv_mean=85.0,
            signal=1.5,
            seed=seed0 + i,
        )
        train, test = ex.generate_synthetic(spec)
        datasets.append((spec.name, train, test))
    return datasets


FAST = dict(learning_rate=0.05, epochs=15)

CONFIG_KEYS = {fld.name: config_key(fld) for fld in fields(ex.RunConfig)}


def by_key(message: str, *names: str) -> str:
    """message with each named RunConfig field written as its config key, as RunConfig's errors name it."""
    for name in names:
        message = message.replace(name, CONFIG_KEYS[name], 1)
    return message


class TestSyntheticSpec:
    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ex.SyntheticSpec(name="x", n_train=5, n_test=40)
        with pytest.raises(ValueError):
            ex.SyntheticSpec(name="x", n_train=40, n_test=40, churn_rate=0.0)
        with pytest.raises(ValueError):
            ex.SyntheticSpec(name="x", n_train=40, n_test=40, clv_churn_corr=1.5)

    def test_generate_sizes_and_statistics(self):
        spec = ex.SyntheticSpec(
            name="jan", n_train=786, n_test=197, churn_rate=0.1699, clv_mean=85.0, seed=2
        )
        train, test = ex.generate_synthetic(spec)
        assert (len(train), len(test)) == (786, 197)
        assert train.n_features == 24
        assert abs(train.churn_rate - 0.1699) <= 0.02
        assert abs(float(train.clvs.mean()) - 85.0) / 85.0 <= 0.05
        assert np.all(train.clvs > 0)

    def test_reproducible_per_seed(self):
        spec = ex.SyntheticSpec(name="r", n_train=50, n_test=20, n_features=4, seed=9)
        a_train, a_test = ex.generate_synthetic(spec)
        b_train, b_test = ex.generate_synthetic(spec)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.clvs, b_test.clvs)

    def test_zero_signal_is_uninformative(self):
        spec = ex.SyntheticSpec(
            name="null", n_train=400, n_test=400, n_features=6, churn_rate=0.3,
            clv_mean=85.0, signal=0.0, seed=5,
        )
        train, test = ex.generate_synthetic(spec)
        tr, te = standardize(train, test)
        model = fit_logistic(tr)
        acc = accuracy(model.score_batch(te.features) <= 0.5, te.labels)
        prior = max(te.churn_rate, 1 - te.churn_rate)
        assert acc <= prior + 0.03  # no better than guessing the majority

    def test_clv_churn_link_splits_profit_from_accuracy(self):
        # when churners carry the high CLVs, the profit-maximizing
        # threshold policy targets deeper than the accuracy-maximizing
        # one; verified by enumerating all thresholds on a 40-customer
        # test sample
        spec = ex.SyntheticSpec(
            name="rich", n_train=100, n_test=40, n_features=4, churn_rate=0.35,
            clv_mean=85.0, clv_sigma=1.0, signal=1.5, clv_churn_corr=0.8, seed=1,
        )
        train, test = ex.generate_synthetic(spec)
        tr, te = standardize(train, test)
        scores = fit_logistic(tr).score_batch(te.features)
        best_profit, best_acc = -np.inf, -np.inf
        z_profit = z_acc = None
        for t in oracles.threshold_candidates(scores):
            z = (scores <= t).astype(int)
            profit = total_profit(z, te.labels, P, te.clvs)
            acc = accuracy(z, te.labels)
            if profit > best_profit:
                best_profit, z_profit = profit, z
            if acc > best_acc:
                best_acc, z_acc = acc, z
        assert not np.array_equal(z_profit, z_acc)

    def test_generator_output_survives_csv_round_trip(self, tmp_path):
        from churnopt.data import load_dataset, save_dataset

        spec = ex.SyntheticSpec(name="rt", n_train=40, n_test=15, n_features=5, seed=3)
        train, _ = ex.generate_synthetic(spec)
        reloaded = load_dataset(save_dataset(train, tmp_path / "rt.csv"), name=train.name)
        assert reloaded.schema == train.schema
        assert np.array_equal(reloaded.features, train.features)
        assert np.array_equal(reloaded.labels, train.labels)
        assert np.array_equal(reloaded.clvs, train.clvs)

    def test_bundled_specs_cover_a_year(self):
        specs = ex.bundled_specs(0)
        assert len(specs) == 12
        assert specs[0].n_train == 786 and specs[0].n_test == 197
        assert specs[11].n_train == 962
        assert len({s.seed for s in specs}) == 12
        assert specs[3].churn_rate == pytest.approx(0.1632)


class TestMonteCarloCv:
    def test_single_cell_returned(self):
        datasets = small_benchmark_inputs(1)
        _, train, _ = datasets[0]
        tr, _ = standardize(train, train)
        best = ex.monte_carlo_cv(tr, [0.02], [5], P, splits=2, n_seeds=1, seed=0)
        assert (best.learning_rate, best.epochs) == (0.02, 5)

    def test_numpy_entries_accepted(self):
        _, train, _ = small_benchmark_inputs(1)[0]
        tr, _ = standardize(train, train)
        best = ex.monte_carlo_cv(tr, np.array([0.02]), np.array([5]), P, splits=2, n_seeds=1, seed=0)
        assert (best.learning_rate, best.epochs) == (0.02, 5) and type(best.epochs) is int

    def test_rigged_grid_prefers_real_training(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, 150)
        x = np.where(labels == 0, -2.0, 2.0) + rng.normal(0, 0.4, 150)
        ds = Dataset(
            name="cv", schema=("f1",), features=x.reshape(-1, 1),
            labels=labels, clvs=rng.uniform(20, 150, 150),
        )
        best = ex.monte_carlo_cv(ds, [1e-9, 0.05], [1, 60], P, splits=3, n_seeds=2, seed=0)
        assert (best.learning_rate, best.epochs) == (0.05, 60)

    def test_deterministic(self):
        datasets = small_benchmark_inputs(1)
        _, train, _ = datasets[0]
        tr, _ = standardize(train, train)
        a = ex.monte_carlo_cv(tr, [0.05, 0.01], [5], P, splits=2, n_seeds=2, seed=3)
        b = ex.monte_carlo_cv(tr, [0.05, 0.01], [5], P, splits=2, n_seeds=2, seed=3)
        assert (a.learning_rate, a.epochs) == (b.learning_rate, b.epochs)

    def test_empty_grid_rejected(self):
        datasets = small_benchmark_inputs(1)
        _, train, _ = datasets[0]
        with pytest.raises(ValueError, match="^learning_rates must be nonempty$"):
            ex.monte_carlo_cv(train, [], [5], P)
        with pytest.raises(ValueError, match="^epochs must be nonempty$"):
            ex.monte_carlo_cv(train, [0.01], [], P)

    def test_repeated_grid_point_rejected(self):
        # each would put one (learning rate, epochs) point on the grid twice
        _, train, _ = small_benchmark_inputs(1)[0]
        with pytest.raises(ValueError, match="^learning_rates lists 0.01 more than once$"):
            ex.monte_carlo_cv(train, [0.01, 0.03, 0.01], [2], P, splits=1, n_seeds=1)
        with pytest.raises(ValueError, match="^epochs lists 2 more than once$"):
            ex.monte_carlo_cv(train, [0.01], [2, 4, 2], P, splits=1, n_seeds=1)

    @pytest.mark.parametrize(
        "rates, epochs, message",
        [
            ([0.01], [2.5], "epochs must be an integer, got 2.5"),
            ([0.01], [True], "epochs must be an integer, got True"),
            ([0.01], [0], "epochs must be >= 1, got 0"),
            ([-0.1], [2], "learning_rate must be > 0, got -0.1"),
            ([np.inf], [2], "learning_rate must be a finite number, got inf"),
        ],
    )
    def test_entry_refused_naming_the_field(self, rates, epochs, message):
        # TrainConfig's own rule checks each entry
        _, train, _ = small_benchmark_inputs(1)[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ex.monte_carlo_cv(train, rates, epochs, P, splits=1, n_seeds=1)

    def test_single_class_data_rejected(self):
        one_class = Dataset(name="one", schema=("f1",), features=np.zeros((20, 1)),
                            labels=np.ones(20, dtype=np.int64), clvs=np.full(20, 50.0))
        with pytest.raises(ValueError, match="^could not draw a two-class training part$"):
            ex.monte_carlo_cv(one_class, [0.01], [2], P, splits=1, n_seeds=1)

    @pytest.mark.parametrize("splits, n_seeds", [(0, 1), (1, 0), (-2, 3)])
    def test_no_validation_run_rejected(self, splits, n_seeds):
        _, train, _ = small_benchmark_inputs(1)[0]
        with pytest.raises(ValueError, match="splits and n_seeds must be >= 1"):
            ex.monte_carlo_cv(train, [0.01], [5], P, splits=splits, n_seeds=n_seeds)


def _cv_with_warnings(cv, data, *grid, **kwargs):
    """(learning rate, epochs) a CV function picks and the CV warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best = cv(data, *grid, P, **kwargs)
    messages = [str(w.message) for w in caught if "cross-validation" in str(w.message)]
    return (best.learning_rate, best.epochs), messages


class TestMonteCarloCvMatchesOracle:
    """Shared epoch prefixes against training every point of the product grid from scratch (tests/oracles.py)."""

    @settings(max_examples=10, deadline=None)
    @given(
        rates=st.lists(st.sampled_from([0.003, 0.05, 0.4, 1e308]), min_size=1, max_size=3, unique=True),
        epochs=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        batch_size=st.sampled_from([None, 24]),
        seed=st.integers(0, 1000),
    )
    def test_same_pick_and_warning(self, rates, epochs, batch_size, seed):
        _, train, _ = small_benchmark_inputs(1)[0]
        tr, _ = standardize(train, train)
        grid = [(lr, e) for lr in rates for e in epochs]
        kwargs = dict(base=TrainConfig(batch_size=batch_size), splits=2, n_seeds=2, seed=seed)
        assert _cv_with_warnings(ex.monte_carlo_cv, tr, rates, epochs, **kwargs) == _cv_with_warnings(
            oracles.monte_carlo_cv, tr, grid, **kwargs
        )

    def test_mid_run_divergence_fails_only_the_longer_cells(self):
        # at learning rate 1e308 every run's weights end epoch 3 non-finite, so the 3-, 6- and 8-epoch cells fail
        _, train, _ = small_benchmark_inputs(1)[0]
        tr, _ = standardize(train, train)
        rates, epochs = [1e308, 0.05], [6, 2, 3, 8]
        kwargs = dict(splits=2, n_seeds=2, seed=0)
        got = _cv_with_warnings(ex.monte_carlo_cv, tr, rates, epochs, **kwargs)
        grid = [(lr, e) for lr in rates for e in epochs]
        assert got == _cv_with_warnings(oracles.monte_carlo_cv, tr, grid, **kwargs)
        assert got[1] == ["12 training run(s) failed during cross-validation"]


class TestResolveD:
    def test_fraction_notation(self):
        assert ex.resolve_d("clv/20", 85.0) == pytest.approx(4.25)
        assert ex.resolve_d("CLV/5", 85.0) == pytest.approx(17.0)

    def test_absolute(self):
        assert ex.resolve_d(4.25, 85.0) == 4.25

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ex.resolve_d("twenty", 85.0)
        with pytest.raises(ValueError):
            ex.resolve_d(-1.0, 85.0)

    @pytest.mark.parametrize(
        "entry", ["clv/0", "clv/-5", "clv/inf", "clv/nan", "clv/abc", 0, -1, float("inf"), None, True, 10**400]
    )
    def test_rejects_entries_without_a_finite_positive_d(self, entry):
        with pytest.raises(ValueError, match="d entry"):
            ex.resolve_d(entry, 85.0)


class TestRunBenchmark:
    def test_single_cell_populates_all_metrics(self):
        datasets = small_benchmark_inputs(1)
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic",), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        assert len(report.cells) == 1
        c = report.cells[0]
        assert c.status == "ok"
        for v in (c.profit, c.accuracy, c.gap, c.eta):
            assert np.isfinite(v)
        assert c.d == pytest.approx(float(datasets[0][1].clvs.mean()) / 20)

    def test_oracle_matches_optimal_with_zero_gap(self):
        datasets = small_benchmark_inputs(1)
        cfg = ex.RunConfig(d_grid=("clv/20", "clv/5"), methods=("oracle",), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        for c in report.cells:
            assert c.profit == pytest.approx(c.optimal_profit, abs=1e-9)
            assert c.gap == 0.0

    def test_constant_scorer_targets_all_or_nothing(self):
        datasets = small_benchmark_inputs(1)
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("constant",), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        assert report.cells[0].eta in (0.0, 1.0)

    def test_deterministic_reports_byte_for_byte(self, tmp_path):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(
            d_grid=("clv/20", "clv/3"), methods=("regret_net", "logistic", "msp_knn"), **FAST
        )
        a = ex.run_benchmark(datasets, cfg).to_csv(tmp_path / "a.csv")
        b = ex.run_benchmark(datasets, cfg).to_csv(tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(
            d_grid=("clv/20", "clv/5"),
            methods=("regret_net", "logistic", "knn", "msp_knn", "constant"),
            **FAST,
        )
        serial = ex.run_benchmark(datasets, cfg, jobs=1).to_csv(tmp_path / "s.csv")
        parallel = ex.run_benchmark(datasets, cfg, jobs=2).to_csv(tmp_path / "p.csv")
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_shot_generator_writes_the_bytes_of_the_list(self, tmp_path, jobs):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=("clv/20", "clv/5"), methods=("regret_net", "logistic", "msp_knn"), **FAST)
        listed = ex.run_benchmark(datasets, cfg, jobs=jobs).to_csv(tmp_path / "list.csv")
        streamed = ex.run_benchmark((d for d in datasets), cfg, jobs=jobs).to_csv(tmp_path / "stream.csv")
        assert streamed.read_bytes() == listed.read_bytes()
        assert len(streamed.read_text().splitlines()) == 1 + 2 * 2 * 3

    def test_pooled_results_in_any_order_write_the_serial_bytes(self, tmp_path, monkeypatch):
        # the pool hands back each task's cells as the task finishes; cells are assembled by name
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=("clv/20", "clv/5"), methods=("regret_net", "knn", "msp_knn", "constant"), **FAST)
        serial = ex.run_benchmark(datasets, cfg, jobs=1).to_csv(tmp_path / "s.csv")
        monkeypatch.setattr(ex, "_run_pooled", lambda tasks, workers: [ex._run_task(t) for t in reversed(tasks)])
        reversed_ = ex.run_benchmark(datasets, cfg, jobs=2).to_csv(tmp_path / "r.csv")
        assert reversed_.read_bytes() == serial.read_bytes()

    def test_failed_cell_is_isolated(self):
        rng = np.random.default_rng(0)
        bad_train = Dataset(
            name="bad", schema=("f1",), features=rng.normal(size=(20, 1)),
            labels=np.ones(20, dtype=int), clvs=rng.uniform(10, 90, 20),
        )  # single class: every trainer must refuse
        good = small_benchmark_inputs(1)[0]
        datasets = [("bad", bad_train, good[2]), good]
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("regret_net", "logistic"), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        assert len(report.failed) == 2
        assert all(c.dataset == "bad" and c.error for c in report.failed)
        ok = [c for c in report.cells if c.status == "ok"]
        assert len(ok) == 2

    def test_optimal_profit_non_increasing_in_d(self):
        datasets = small_benchmark_inputs(2)
        for _, train, test in datasets:
            clv_mean = float(train.clvs.mean())
            profits = [
                optimal_total_profit(test.labels, replace(P, d=ex.resolve_d(e, clv_mean)), test.clvs)
                for e in ex.DEFAULT_D_GRID
            ]
            assert all(a >= b - 1e-9 for a, b in zip(profits, profits[1:]))


D3 = ("clv/20", "clv/10", "clv/5")
FITS = ("knn_scores", "fit_logistic", "fit_cart", "smote_balance", "train_stack")


def count_calls(monkeypatch, names=FITS):
    """Replace experiments' view of each named function with a recorder."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(ex, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ex, name, counted)
    return calls


class TestSharedFits:
    def test_d_free_scorers_fit_once_per_dataset(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = ex.RunConfig(d_grid=D3, **FAST)  # the 8 default methods
        report = ex.run_benchmark(small_benchmark_inputs(2), cfg)
        assert len(report.cells) == 2 * 3 * 8 and report.failed == ()
        assert len(calls["fit_logistic"]) == 2
        assert len(calls["fit_cart"]) == 2
        assert len(calls["smote_balance"]) == 2 * 4  # xent_net, logistic, knn, cart
        # one reference set per dataset, scoring the test and the train split
        assert sorted(a[0].name for a in calls["knn_scores"]) == ["ds0_train"] * 2 + ["ds1_train"] * 2
        # (loss, nets) per stack: regret_net trains one net per d, as one stack per dataset
        stacks = [(a[1][0].cfg.loss, len(a[1])) for a in calls["train_stack"]]
        assert sorted(stacks) == [("cross-entropy", 1)] * 2 + [("smooth-regret", 3)] * 2

    def test_drop_below_break_even_fits_every_scorer_per_d(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = ex.RunConfig(d_grid=D3, drop_below_break_even=True, **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(2), cfg)
        assert report.failed == ()
        assert len(calls["fit_logistic"]) == len(calls["fit_cart"]) == 2 * 3
        assert len(calls["smote_balance"]) == 2 * 3 * 4
        assert len(calls["knn_scores"]) == 2 * 3 * 2
        stacks = [(a[1][0].cfg.loss, len(a[1])) for a in calls["train_stack"]]
        assert sorted(stacks) == [("cross-entropy", 1)] * 2 * 3 + [("smooth-regret", 1)] * 2 * 3

    def test_a_scorer_that_reads_d_is_fitted_once_per_d(self, monkeypatch):
        # the scorer column, not the scorer's name, decides how _plan groups the cells
        monkeypatch.setitem(ex._SCORERS, "cart", ex._SCORERS["cart"]._replace(reads_d=True))
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=D3, methods=("cart", "msp_cart", "logistic"), **FAST)
        by_scorer = {task[3]: task[-1] for task in ex._plan(datasets, cfg) if task[0] == "ds0"}
        assert [[d_label for d_label, _, _ in cells] for _, cells in by_scorer["cart"]] == [[e, e] for e in D3]
        assert len(by_scorer["logistic"]) == 1
        calls = count_calls(monkeypatch)
        report = ex.run_benchmark(datasets, cfg)
        assert len(report.cells) == 2 * 3 * 3 and report.failed == ()
        assert len(calls["fit_cart"]) == 2 * 3
        assert len(calls["fit_logistic"]) == 2

    def test_cv_tunes_exactly_the_nets_whose_loss_reads_the_campaign(self, monkeypatch):
        original, tuned = ex.monte_carlo_cv, []

        def monte_carlo_cv(data, learning_rates, epochs, params, base, **kwargs):
            tuned.append((data.name, params.d, base.loss))
            return original(data, learning_rates, epochs, params, base, **kwargs)

        monkeypatch.setattr(ex, "monte_carlo_cv", monte_carlo_cv)
        cfg = ex.RunConfig(d_grid=D3, methods=("regret_net", "xent_net"), cv_learning_rates=(0.01, 0.05),
                           cv_epochs=(2,), cv_splits=1, cv_seeds=1, **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(2), cfg)
        assert len(report.cells) == 2 * 3 * 2 and report.failed == ()
        assert len(tuned) == len({(name, d) for name, d, _ in tuned}) == 2 * 3
        assert {loss for *_, loss in tuned} == {"smooth-regret"}

    def test_regret_net_rows_match_direct_training(self):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=D3, methods=("logistic", "msp_knn", "regret_net"), seed=3, **FAST)
        report = ex.run_benchmark(datasets, cfg)
        rows = iter(c for c in report.cells if c.method == "regret_net")
        for di, (_, train_raw, test_raw) in enumerate(datasets):
            tr, te = standardize(train_raw, test_raw)
            for dj, entry in enumerate(D3):
                _, seed, _ = ex._cell_seeds(3, di, dj, 2)
                params = cfg.campaign(ex.resolve_d(entry, float(train_raw.clvs.mean())))
                tc = TrainConfig(loss="smooth-regret", seed=seed, **FAST)
                [(models, _)] = train_stack(tr, [StackSlice(init_mlp(3, default_hidden(3), seed=seed), params, tc)])
                decisions = prescribe(forward_batch(models[tc.epochs], te.features), midpoint(params, te.clvs))
                cell = next(rows)
                assert cell.profit == total_profit(decisions, te.labels, params, te.clvs)
                assert cell.eta == float(decisions.mean())

    def test_diverging_net_fails_only_its_own_d(self, monkeypatch):
        cfg = ex.RunConfig(d_grid=D3, methods=("regret_net", "logistic"), **FAST)
        clean = ex.run_benchmark(small_benchmark_inputs(1), cfg).cells
        original = ex.train_stack

        def train_stack(data, slices, keep=()):
            nan_start = replace(slices[1].init, w1=np.full_like(slices[1].init.w1, np.nan))
            return original(data, [slices[0], replace(slices[1], init=nan_start), *slices[2:]], keep)

        monkeypatch.setattr(ex, "train_stack", train_stack)
        cells = ex.run_benchmark(small_benchmark_inputs(1), cfg).cells
        failed = [c for c in cells if c.status != "ok"]
        assert [(c.d_label, c.method, c.error) for c in failed] == [
            ("clv/10", "regret_net", "RuntimeError: non-finite training loss at epoch 0, batch 0")
        ]
        assert [c for c in cells if c.status == "ok"] == [
            c for c in clean if (c.d_label, c.method) != ("clv/10", "regret_net")
        ]

    def test_failed_fit_fails_exactly_the_cells_it_serves(self, monkeypatch):
        original = ex.knn_scores

        def knn_scores(train_ds, X, k):
            if train_ds.name.startswith("ds1"):
                raise KeyError("x")
            return original(train_ds, X, k)

        monkeypatch.setattr(ex, "knn_scores", knn_scores)
        cfg = ex.RunConfig(d_grid=D3, methods=("regret_net", "knn", "msp_knn", "logistic"), **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(2), cfg)
        failed = {(c.dataset, c.d_label, c.method) for c in report.failed}
        assert failed == {("ds1", e, m) for e in D3 for m in ("knn", "msp_knn")}
        assert all(c.error == "KeyError: 'x'" for c in report.failed)
        assert sum(c.status == "ok" for c in report.cells) == len(report.cells) - 6

    def test_smote_settings_reach_only_smote_fits(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = ex.RunConfig(
            d_grid=("clv/20",), methods=("regret_net", "logistic"), smote_k=3, smote_ratio=0.8, **FAST
        )
        report = ex.run_benchmark(small_benchmark_inputs(1), cfg)
        assert report.failed == ()
        assert [(a[1].k_neighbors, a[1].ratio) for a in calls["smote_balance"]] == [(3, 0.8)]
        assert [a[0].name for a in calls["fit_logistic"]] == ["ds0_train"]
        assert len(calls["fit_logistic"][0][0]) > len(calls["train_stack"][0][0])  # only logistic saw SMOTE rows

    def test_failed_rule_fails_only_its_cell(self, monkeypatch):
        def msp(*args):
            raise RuntimeError("no thresholds")

        monkeypatch.setattr(ex, "msp", msp)
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("knn", "msp_knn"), **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(1), cfg)
        assert [(c.method, c.status, c.error) for c in report.cells] == [
            ("knn", "ok", ""),
            ("msp_knn", "failed", "RuntimeError: no thresholds"),
        ]

    def test_bad_d_entry_rejected_before_any_fit(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = ex.RunConfig(d_grid=("clv/20", "clv/0"), methods=("logistic",), **FAST)
        with pytest.raises(ValueError, match="dataset 'ds0'.*'clv/0'"):
            ex.run_benchmark(small_benchmark_inputs(2), cfg)
        assert not any(calls.values())

    def test_repeated_dataset_name_rejected_before_any_fit(self, monkeypatch):
        # cells are keyed by (dataset, method): a second 'ds0' would hide the first
        calls = count_calls(monkeypatch)
        first, second = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic", "knn"), **FAST)
        with pytest.raises(ValueError, match="dataset name 'ds0' appears more than once"):
            ex.run_benchmark([first, ("ds0", *second[1:])], cfg)
        assert not any(calls.values())


def _reaped(pid: int) -> bool:
    """Whether pid is no longer a child of this process, living or zombie."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestPoolWidth:
    @pytest.fixture
    def started(self, monkeypatch):
        """The pid of every child run_benchmark forks; each must be reaped by the end of the test."""
        started, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                started.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        yield started
        assert all(map(_reaped, started))

    def test_pool_is_capped_at_the_number_of_fits(self, started, tmp_path):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=("clv/20", "clv/5"), methods=("logistic", "knn"), **FAST)
        n_tasks = len(ex._plan(datasets, cfg))
        assert n_tasks == 4  # logistic and knn, once per dataset
        serial = ex.run_benchmark(datasets, cfg, jobs=1).to_csv(tmp_path / "serial.csv")
        assert started == []
        for jobs, children in ((2, 1), (3, 2), (10**6, n_tasks - 1)):  # this process is the jobs-th
            pooled = ex.run_benchmark(datasets, cfg, jobs=jobs).to_csv(tmp_path / f"pooled{jobs}.csv")
            assert len(started) == children
            assert all(map(_reaped, started))
            assert pooled.read_bytes() == serial.read_bytes()
            started.clear()

    def test_one_fit_runs_without_a_pool(self, started):
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic",), **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(1), cfg, jobs=10**6)
        assert started == []
        assert [c.status for c in report.cells] == ["ok"]

    def test_every_task_runs_once_on_more_workers_than_cores(self, started, monkeypatch):
        # 6 processes race for the counter on tasks that take no time: a claim
        # that two processes both won would return its task twice
        monkeypatch.setattr(ex, "_run_task", lambda task: [(os.getpid(), task)])
        results = ex._run_pooled(list(range(300)), 6)
        assert sorted(task for (_, task), in results) == list(range(300))
        assert len(started) == 5 and {pid for (pid, _), in results} <= {os.getpid(), *started}


def _fresh_run(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that can import churnopt and these tests, within 60 s; it must exit 0."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def _fresh(code: str) -> str:
    """The stdout of code run by _fresh_run."""
    return _fresh_run(code).stdout


# run_benchmark on four fits with jobs=2, where the child's _run_task calls
# os._exit(CODE) and the parent's waits long enough for the child to take a task
_CHILD_EXITS = """
import os, time
from churnopt import experiments as ex
from test_experiments import FAST, small_benchmark_inputs
parent, run_task = os.getpid(), ex._run_task
def run_or_exit(task):
    if os.getpid() != parent:
        os._exit(CODE)
    time.sleep(0.2)
    return run_task(task)
ex._run_task = run_or_exit
cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic", "knn"), **FAST)
try:
    ex.run_benchmark(small_benchmark_inputs(2), cfg, jobs=2)
except RuntimeError as exc:
    print(exc)
"""

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


class TestFreshInterpreter:
    def test_dead_child_raises_naming_its_exit_code(self):
        assert _fresh(_CHILD_EXITS.replace("CODE", "3")) == "a benchmark worker exited with code 3\n"

    def test_children_gone_with_results_missing_raises(self):
        out = _fresh(_CHILD_EXITS.replace("CODE", "0"))
        assert out == "every benchmark worker exited with 1 task results missing\n"

    def test_spawned_children_write_the_serial_bytes(self, tmp_path):
        # the branch for platforms without a safe fork, as on macOS: an executor on spawned workers
        out = _fresh(f"""
import multiprocessing, sys
from churnopt.cli import main
multiprocessing.set_start_method("spawn")
sys.platform = "darwin"
assert main(["benchmark", "--config", {str(GOLDEN / "run.json")!r}, "--out", {str(tmp_path)!r}, "--jobs", "2"]) == 0
print("concurrent.futures.process" in sys.modules)
""")
        assert out.splitlines()[-1] == "True"
        for name in ("benchmark_cells.csv", "summary.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_forked_run_imports_no_pool_module(self, tmp_path):
        out = _fresh(f"""
import sys
from churnopt.cli import main
assert main(["benchmark", "--config", {str(GOLDEN / "run.json")!r}, "--out", {str(tmp_path)!r}, "--jobs", "2"]) == 0
print([m for m in ("multiprocessing", "concurrent.futures", "socket") if m in sys.modules])
""")
        assert out.splitlines()[-1] == "[]"
        for name in ("benchmark_cells.csv", "summary.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_buffered_parent_text_and_child_warning_appear_once(self):
        # both streams block-buffered, whatever PYTHONUNBUFFERED says: a fork that
        # copies unflushed text repeats it, and a child that exits unflushed loses it
        code = """
import os, sys, time, warnings
sys.stdout, sys.stderr = open(1, "w", closefd=False), open(2, "w", closefd=False)
from churnopt import experiments as ex
from test_experiments import FAST, small_benchmark_inputs
parent, run_task = os.getpid(), ex._run_task
def run_and_warn(task):
    if os.getpid() != parent:
        warnings.warn("a child's warning")
    else:
        time.sleep(0.2)
    return run_task(task)
ex._run_task = run_and_warn
print("parent text before the fork", end=" ")
sys.stderr.write("parent error text before the fork ")
cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic", "knn"), **FAST)
ex.run_benchmark(small_benchmark_inputs(2), cfg, jobs=2)
"""
        done = _fresh_run(code)
        assert done.stdout == "parent text before the fork "
        assert done.stderr.count("parent error text before the fork") == 1, done.stderr
        assert done.stderr.count("a child's warning") == 1, done.stderr

    def test_error_in_the_parents_share_leaves_no_child(self):
        out = _fresh("""
import os, time
from churnopt import experiments as ex
from test_experiments import FAST, small_benchmark_inputs
parent, run_task = os.getpid(), ex._run_task
def slow_or_fail(task):
    if os.getpid() == parent:
        raise KeyboardInterrupt
    time.sleep(30)
    return run_task(task)
ex._run_task = slow_or_fail
cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic", "knn"), **FAST)
start = time.monotonic()
try:
    ex.run_benchmark(small_benchmark_inputs(2), cfg, jobs=3)
except KeyboardInterrupt:
    pass
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child", time.monotonic() - start < 10)
""")
        assert out == "no child True\n"

    def test_serial_run_imports_no_pool_module(self, tmp_path):
        out = _fresh(f"""
import sys
from churnopt.cli import main
assert main(["benchmark", "--config", {str(GOLDEN / "run.json")!r}, "--out", {str(tmp_path)!r}, "--jobs", "1"]) == 0
print([m for m in ("multiprocessing", "concurrent.futures", "concurrent.futures.process") if m in sys.modules])
""")
        assert out.splitlines()[-1] == "[]"

    def test_serial_run_imports_no_masked_arrays(self, tmp_path):
        # numpy 1.x imports numpy.ma with numpy itself; the run must not add it where numpy did not
        out = _fresh(f"""
import sys
import numpy
before = "numpy.ma" in sys.modules
from churnopt.cli import main
assert main(["benchmark", "--config", {str(GOLDEN / "run.json")!r}, "--out", {str(tmp_path)!r}, "--jobs", "1"]) == 0
print(before or "numpy.ma" not in sys.modules)
""")
        assert out.splitlines()[-1] == "True"


class TestSummaryAndSweep:
    def test_summary_blocks(self):
        datasets = small_benchmark_inputs(3)
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("oracle", "logistic", "constant"), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        summary = ex.benchmark_summary(report, cfg, [n for n, _, _ in datasets])
        block = summary["per_d"]["clv/20"]
        assert set(block["avg_ranks"]) == {"oracle", "logistic", "constant"}
        assert block["avg_ranks"]["oracle"] == 1.0  # optimal profit wins every dataset
        assert block["holm"]["best"] == "oracle"
        assert summary["failed_cells"] == []

    def test_summary_notes_missing_cells(self):
        rng = np.random.default_rng(1)
        bad_train = Dataset(
            name="bad", schema=("f1",), features=rng.normal(size=(20, 1)),
            labels=np.ones(20, dtype=int), clvs=rng.uniform(10, 90, 20),
        )
        good = small_benchmark_inputs(1)[0]
        datasets = [("bad", bad_train, good[2])]
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic", "knn", "cart"), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        summary = ex.benchmark_summary(report, cfg, ["bad"])
        assert "note" in summary["per_d"]["clv/20"]
        assert len(summary["failed_cells"]) == 3

    def test_single_d_sweep_reduces_to_benchmark_means(self):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic", "oracle"), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        tables = ex.sensitivity_sweep(report, cfg)
        for row in tables["profit_vs_d"]:
            cells = [c for c in report.cells if c.method == row["method"]]
            assert row["mean_profit"] == pytest.approx(float(np.mean([c.profit for c in cells])))
        assert len(tables["eta_profit_vs_d"]) == 4  # per dataset x method

    def test_oracle_gap_zero_at_every_d(self):
        datasets = small_benchmark_inputs(1)
        cfg = ex.RunConfig(d_grid=ex.DEFAULT_D_GRID, methods=("oracle",), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        tables = ex.sensitivity_sweep(report, cfg)
        assert len(tables["gap_vs_d"]) == 5
        assert all(row["mean_gap"] == 0.0 for row in tables["gap_vs_d"])

    def test_sweep_matches_oracle_with_failed_cells(self):
        rng = np.random.default_rng(1)
        good = small_benchmark_inputs(2)
        bad_train = Dataset(
            name="bad", schema=("f1", "f2", "f3"), features=rng.normal(size=(20, 3)),
            labels=np.ones(20, dtype=int), clvs=rng.uniform(10, 90, 20),
        )
        datasets = [good[0], ("bad", bad_train, good[1][2]), good[1]]
        cfg = ex.RunConfig(d_grid=("clv/20", 1e6), methods=("logistic", "knn", "oracle", "constant"), **FAST)
        report = ex.run_benchmark(datasets, cfg)
        assert report.failed and len(report.failed) < len(report.cells)
        tables = ex.sensitivity_sweep(report, cfg)
        expected = oracles.sensitivity_sweep(report, cfg)
        assert {k: [list(r.items()) for r in rows] for k, rows in tables.items()} == {
            k: [list(r.items()) for r in rows] for k, rows in expected.items()
        }
        # every gap is NaN at d = 1e6, so that d value has profit rows and no gap row
        assert {r["d_label"] for r in tables["profit_vs_d"]} == {"clv/20", "1000000.0"}
        assert {r["d_label"] for r in tables["gap_vs_d"]} == {"clv/20"}

    def test_table_csv_stable(self, tmp_path):
        rows = [
            {"a": "x", "b": 1.5, "c": 7},
            {"a": "y", "b": float("nan"), "c": -0.0},
            {"a": "z", "b": 1e16, "c": 5e-324},
            {"a": "w", "b": np.float64(1.5), "c": "s t"},
        ]
        p1 = ex.write_table_csv(rows, tmp_path / "t1.csv")
        p2 = ex.write_table_csv(rows, tmp_path / "t2.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines() == ["a,b,c", "x,1.5,7", "y,,-0.0", "z,1e+16,5e-324", "w,1.5,s t"]
        assert ex.write_table_csv([], tmp_path / "t3.csv").read_bytes() == b""


class TestRunConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            ex.RunConfig(methods=("nonsense",))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("knn_k", 0, "knn_k must be >= 1"),
            ("cv_splits", 0, "cv_splits must be >= 1"),
            ("cv_seeds", -1, "cv_seeds must be >= 1"),
            ("cart_min_leaf", 0, "min_leaf must be >= 1"),
            ("cart_max_depth", -1, "max_depth must be >= 0"),
            ("smote_k", 0, "k_neighbors must be >= 1"),
            ("smote_ratio", 1.5, "ratio must lie in"),
            ("methods", (), "nonempty"),
            ("d_grid", (), "nonempty"),
            ("epochs", 0, "epochs must be >= 1"),
            ("learning_rate", 0, "learning_rate must be > 0"),
            ("hidden", 0, "hidden must be >= 1"),
            ("batch_size", 0, "batch_size must be >= 1"),
            ("knn_k", 2.5, "knn_k must be an integer"),
            ("q", 1.5, "q must be an integer"),
            ("cv_splits", 2.0, "cv_splits must be an integer"),
            ("cv_seeds", True, "cv_seeds must be an integer"),
            ("smote_k", 2.5, "smote_k must be an integer"),
            ("cart_max_depth", 3.5, "cart_max_depth must be an integer"),
            ("cart_min_leaf", 1.5, "cart_min_leaf must be an integer"),
            ("epochs", 2.5, "epochs must be an integer"),
            ("epochs", True, "epochs must be an integer"),
            ("hidden", 1.5, "hidden must be an integer"),
            ("batch_size", 32.0, "batch_size must be an integer"),
            ("seed", "x", "seed must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", True, "seed must be an integer"),
            ("seed", -1, "seed must be >= 0"),
            ("f", "1.36", "f must be a finite number"),
            ("f", 10**400, "f must be a finite number"),
            ("gamma", True, "gamma must be a finite number"),
            ("slope", np.inf, "slope must be a finite number"),
            ("learning_rate", "0.1", "learning_rate must be a finite number"),
            ("smote_ratio", "1", "smote_ratio must be a finite number"),
            ("class_threshold", "0.5", "class_threshold must be a finite number"),
            ("class_threshold", np.nan, "class_threshold must be a finite number"),
            ("cv_learning_rates", ("0.1",), "cv_learning_rates must be a finite number"),
            ("drop_below_break_even", "no", "drop_below_break_even must be true or false"),
            ("d_grid", "clv/20", "d_grid must be a tuple, got 'clv/20'"),
            ("d_grid", 5, "d_grid must be a tuple, got 5"),
            ("d_grid", ["clv/20"], "d_grid must be a tuple"),
            ("methods", ["knn"], "methods must be a tuple"),
            ("cv_learning_rates", 0.01, "cv_learning_rates must be a tuple"),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=by_key(message, field)):
            ex.RunConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("f", -1.0, "campaign.f must be >= 0, got -1.0"),
            ("gamma", 0.0, "campaign.gamma must lie in (0, 1], got 0.0"),
            ("gamma", 5.0, "campaign.gamma must lie in (0, 1], got 5.0"),
            ("slope", 0.0, "campaign.slope must be > 0, got 0.0"),
            ("epochs", 0, "model.epochs must be >= 1, got 0"),
            ("smote_k", 0, "smote.k_neighbors must be >= 1, got 0"),
            ("smote_ratio", 1.5, "smote.ratio must lie in (0, 1], got 1.5"),
            ("cart_max_depth", -1, "baselines.cart_max_depth must be >= 0, got -1"),
            ("cart_min_leaf", 0, "baselines.cart_min_leaf must be >= 1, got 0"),
            ("regret_net_accuracy", "median",
             "regret_net_accuracy must be one of ('threshold', 'midpoint'), got 'median'"),
        ],
    )
    def test_message_names_the_config_key(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ex.RunConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("methods", ("logistic", "knn", "knn", "cart"), "methods lists 'knn' more than once"),
            ("d_grid", ("clv/20", "clv/5", "clv/20"), "d_grid lists 'clv/20' more than once"),
            # entries are compared by their label, str(entry)
            ("d_grid", (5.0, "5.0"), "d_grid lists '5.0' more than once"),
        ],
    )
    def test_repeated_name_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ex.RunConfig(**{field: value})

    @pytest.mark.parametrize(
        "rates, epochs, message",
        [
            ((0.01, 0.03, 0.01), (2, 4), "cv_learning_rates lists 0.01 more than once"),
            ((0.01,), (2, 2), "cv_epochs lists 2 more than once"),
        ],
    )
    def test_repeated_cv_entry_rejected(self, rates, epochs, message):
        # each would put one (learning rate, epochs) point on the CV grid twice
        with pytest.raises(ValueError, match=by_key(message, "cv_learning_rates", "cv_epochs")):
            ex.RunConfig(cv_learning_rates=rates, cv_epochs=epochs)

    def test_distinct_d_labels_for_one_value_accepted(self):
        assert ex.RunConfig(d_grid=(5, 5.0)).d_grid == (5, 5.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cv_learning_rates": (0.01, 0.03), "cv_epochs": (5, 0)}, "cv_epochs must be >= 1, got 0"),
            ({"cv_learning_rates": (-0.1,), "cv_epochs": (5,)}, "cv_learning_rates must be > 0, got -0.1"),
            ({"cv_learning_rates": (0.01,), "cv_epochs": (2.5,)}, "cv_epochs must be an integer"),
            ({"cv_learning_rates": (0.01,), "cv_epochs": (True,)}, "cv_epochs must be an integer"),
            ({"cv_learning_rates": (0.01,)}, "cv_learning_rates and cv_epochs must both"),
            ({"cv_epochs": (5,)}, "cv_learning_rates and cv_epochs must both"),
            ({"cv_learning_rates": (0.01,), "cv_epochs": 5}, "cv_epochs must be a tuple, got 5"),
        ],
    )
    def test_bad_cv_grid_rejected(self, fields, message):
        with pytest.raises(ValueError, match=by_key(message, "cv_learning_rates", "cv_epochs")):
            ex.RunConfig(**fields)

    def test_count_fields_accept_numpy_integers_and_unset_optionals(self):
        cfg = ex.RunConfig(knn_k=np.int64(3), hidden=None, batch_size=None, cv_learning_rates=(0.01,), cv_epochs=(2, 4))
        assert (cfg.knn_k, cfg.hidden, cfg.batch_size, cfg.cv_learning_rates, cfg.cv_epochs) == (3, None, None, (0.01,), (2, 4))

    def test_regret_net_accuracy_switch(self):
        datasets = small_benchmark_inputs(1)
        base = dict(d_grid=("clv/20",), methods=("regret_net",), **FAST)
        r1 = ex.run_benchmark(datasets, ex.RunConfig(**base))
        r2 = ex.run_benchmark(datasets, ex.RunConfig(regret_net_accuracy="midpoint", **base))
        assert r1.cells[0].profit == r2.cells[0].profit  # decisions unchanged

        _, train_raw, test_raw = datasets[0]
        tr, te = standardize(train_raw, test_raw)
        params = ex.RunConfig(**base).campaign(ex.resolve_d("clv/20", float(train_raw.clvs.mean())))
        _, seed, _ = ex._cell_seeds(0, 0, 0, 0)
        tc = TrainConfig(loss="smooth-regret", seed=seed, **FAST)
        [(models, _)] = train_stack(tr, [StackSlice(init_mlp(3, default_hidden(3), seed=seed), params, tc)])
        scores = forward_batch(models[tc.epochs], te.features)
        assert r1.cells[0].accuracy == accuracy(scores <= 0.5, te.labels)
        assert r2.cells[0].accuracy == accuracy(prescribe(scores, midpoint(params, te.clvs)), te.labels)
        assert r1.cells[0].accuracy != r2.cells[0].accuracy

    def test_drop_below_break_even_flag(self):
        datasets = small_benchmark_inputs(1)
        cfg = ex.RunConfig(
            d_grid=("clv/20",), methods=("regret_net",), drop_below_break_even=True, **FAST
        )
        report = ex.run_benchmark(datasets, cfg)
        assert report.cells[0].status == "ok"
