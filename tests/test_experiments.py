"""Synthetic generation, cross-validation, and the benchmark engine."""

import warnings
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt import experiments as ex
from churnopt.campaign import CampaignParams, midpoint, optimal_total_profit, prescribe, total_profit
from churnopt.data import Dataset, standardize
from churnopt.metrics import accuracy, threshold_candidates
from churnopt.models import TrainConfig, default_hidden, fit_logistic, forward_batch, init_mlp, train

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
        for t in threshold_candidates(scores):
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
        best = ex.monte_carlo_cv(tr, [(0.02, 5)], P, splits=2, n_seeds=1, seed=0)
        assert (best.learning_rate, best.epochs) == (0.02, 5)

    def test_rigged_grid_prefers_real_training(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, 150)
        x = np.where(labels == 0, -2.0, 2.0) + rng.normal(0, 0.4, 150)
        ds = Dataset(
            name="cv", schema=("f1",), features=x.reshape(-1, 1),
            labels=labels, clvs=rng.uniform(20, 150, 150),
        )
        best = ex.monte_carlo_cv(ds, [(1e-9, 1), (0.05, 60)], P, splits=3, n_seeds=2, seed=0)
        assert (best.learning_rate, best.epochs) == (0.05, 60)

    def test_deterministic(self):
        datasets = small_benchmark_inputs(1)
        _, train, _ = datasets[0]
        tr, _ = standardize(train, train)
        grid = [(0.05, 5), (0.01, 5)]
        a = ex.monte_carlo_cv(tr, grid, P, splits=2, n_seeds=2, seed=3)
        b = ex.monte_carlo_cv(tr, grid, P, splits=2, n_seeds=2, seed=3)
        assert (a.learning_rate, a.epochs) == (b.learning_rate, b.epochs)

    def test_empty_grid_rejected(self):
        datasets = small_benchmark_inputs(1)
        _, train, _ = datasets[0]
        with pytest.raises(ValueError, match="nonempty"):
            ex.monte_carlo_cv(train, [], P)

    @pytest.mark.parametrize("splits, n_seeds", [(0, 1), (1, 0), (-2, 3)])
    def test_no_validation_run_rejected(self, splits, n_seeds):
        _, train, _ = small_benchmark_inputs(1)[0]
        with pytest.raises(ValueError, match="splits and n_seeds must be >= 1"):
            ex.monte_carlo_cv(train, [(0.01, 5)], P, splits=splits, n_seeds=n_seeds)


def _cv_with_warnings(cv, data, grid, **kwargs):
    """(learning rate, epochs) a CV function picks and the CV warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best = cv(data, grid, P, **kwargs)
    messages = [str(w.message) for w in caught if "cross-validation" in str(w.message)]
    return (best.learning_rate, best.epochs), messages


class TestMonteCarloCvMatchesOracle:
    """Shared epoch prefixes against training every grid point from scratch (tests/oracles.py)."""

    @settings(max_examples=10, deadline=None)
    @given(
        epochs_by_lr=st.dictionaries(
            st.sampled_from([0.003, 0.05, 0.4, 1e308]),
            st.lists(st.integers(1, 6), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        batch_size=st.sampled_from([None, 24]),
        seed=st.integers(0, 1000),
    )
    def test_same_pick_and_warning(self, epochs_by_lr, batch_size, seed):
        _, train, _ = small_benchmark_inputs(1)[0]
        tr, _ = standardize(train, train)
        grid = [(lr, e) for lr, counts in epochs_by_lr.items() for e in counts]
        kwargs = dict(base=TrainConfig(batch_size=batch_size), splits=2, n_seeds=2, seed=seed)
        assert _cv_with_warnings(ex.monte_carlo_cv, tr, grid, **kwargs) == _cv_with_warnings(
            oracles.monte_carlo_cv, tr, grid, **kwargs
        )

    def test_mid_run_divergence_fails_only_the_longer_cells(self):
        # at learning rate 1e308 every run of this split turns non-finite in epoch 4
        _, train, _ = small_benchmark_inputs(1)[0]
        tr, _ = standardize(train, train)
        grid = [(1e308, 6), (1e308, 2), (1e308, 3), (1e308, 8), (0.05, 2)]
        kwargs = dict(splits=2, n_seeds=2, seed=0)
        got = _cv_with_warnings(ex.monte_carlo_cv, tr, grid, **kwargs)
        assert got == _cv_with_warnings(oracles.monte_carlo_cv, tr, grid, **kwargs)
        assert got[1] == ["8 training run(s) failed during cross-validation"]


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
FITS = ("knn_scores", "fit_logistic", "fit_cart", "smote_balance", "train")


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
        losses = [a[3].loss for a in calls["train"]]
        assert losses.count("smooth-regret") == 2 * 3  # regret_net: per (dataset, d)
        assert losses.count("cross-entropy") == 2

    def test_drop_below_break_even_fits_every_scorer_per_d(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = ex.RunConfig(d_grid=D3, drop_below_break_even=True, **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(2), cfg)
        assert report.failed == ()
        assert len(calls["fit_logistic"]) == len(calls["fit_cart"]) == 2 * 3
        assert len(calls["smote_balance"]) == 2 * 3 * 4
        assert len(calls["knn_scores"]) == 2 * 3 * 2
        losses = [a[3].loss for a in calls["train"]]
        assert losses.count("smooth-regret") == losses.count("cross-entropy") == 2 * 3

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
                model = train(init_mlp(3, default_hidden(3), seed=seed), tr, params, tc)
                decisions = prescribe(forward_batch(model, te.features), midpoint(params, te.clvs))
                cell = next(rows)
                assert cell.profit == total_profit(decisions, te.labels, params, te.clvs)
                assert cell.eta == float(decisions.mean())

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
        assert len(calls["fit_logistic"][0][0]) > len(calls["train"][0][1])  # only logistic saw SMOTE rows

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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    def __init__(self, widths, max_workers):
        widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPoolWidth:
    @pytest.fixture
    def widths(self, monkeypatch):
        widths = []
        monkeypatch.setattr(ex, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(widths, max_workers))
        return widths

    def test_pool_is_capped_at_the_number_of_fits(self, widths, tmp_path):
        datasets = small_benchmark_inputs(2)
        cfg = ex.RunConfig(d_grid=("clv/20", "clv/5"), methods=("logistic", "knn"), **FAST)
        n_tasks = len(ex._plan(datasets, cfg))
        assert n_tasks == 4  # logistic and knn, once per dataset
        pooled = ex.run_benchmark(datasets, cfg, jobs=10**6).to_csv(tmp_path / "pooled.csv")
        assert widths == [n_tasks]
        serial = ex.run_benchmark(datasets, cfg, jobs=1).to_csv(tmp_path / "serial.csv")
        assert pooled.read_bytes() == serial.read_bytes()

    def test_one_fit_runs_without_a_pool(self, widths):
        cfg = ex.RunConfig(d_grid=("clv/20",), methods=("logistic",), **FAST)
        report = ex.run_benchmark(small_benchmark_inputs(1), cfg, jobs=10**6)
        assert widths == []
        assert [c.status for c in report.cells] == ["ok"]


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

    def test_table_csv_stable(self, tmp_path):
        rows = [{"a": "x", "b": 1.5}, {"a": "y", "b": float("nan")}]
        p1 = ex.write_table_csv(rows, tmp_path / "t1.csv")
        p2 = ex.write_table_csv(rows, tmp_path / "t2.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "a,b"


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
        with pytest.raises(ValueError, match=message):
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

    def test_distinct_d_labels_for_one_value_accepted(self):
        assert ex.RunConfig(d_grid=(5, 5.0)).d_grid == (5, 5.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cv_learning_rates": (0.01, 0.03), "cv_epochs": (5, 0)}, "cv grid point .* epochs must be >= 1"),
            ({"cv_learning_rates": (-0.1,), "cv_epochs": (5,)}, "cv grid point .* learning_rate must be > 0"),
            ({"cv_learning_rates": (0.01,), "cv_epochs": (2.5,)}, "cv_epochs must be an integer"),
            ({"cv_learning_rates": (0.01,), "cv_epochs": (True,)}, "cv_epochs must be an integer"),
            ({"cv_learning_rates": (0.01,)}, "cv_learning_rates and cv_epochs must both"),
            ({"cv_epochs": (5,)}, "cv_learning_rates and cv_epochs must both"),
            ({"cv_learning_rates": (0.01,), "cv_epochs": 5}, "cv_epochs must be a tuple, got 5"),
        ],
    )
    def test_bad_cv_grid_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ex.RunConfig(**fields)

    def test_count_fields_accept_numpy_integers_and_unset_optionals(self):
        cfg = ex.RunConfig(knn_k=np.int64(3), hidden=None, batch_size=None, cv_learning_rates=(0.01,), cv_epochs=(2, 4))
        assert cfg.cv_grid == [(0.01, 2), (0.01, 4)]

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
        scores = forward_batch(train(init_mlp(3, default_hidden(3), seed=seed), tr, params, tc), te.features)
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
