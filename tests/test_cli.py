"""Command-line interface: exit codes, file outputs, reproducibility."""

import copy
import csv
import functools
import json
import operator
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from churnopt import cli
from churnopt import experiments as ex
from churnopt.cli import main
from reference import (
    MONTHS,
    PUBLISHED_AVG_RANKS,
    REFERENCE_METHODS,
    REFERENCE_PROFITS,
    REJECTED_METHODS,
)

JAN_SPEC = {
    "name": "jan",
    "n_train": 786,
    "n_test": 197,
    "n_features": 6,
    "churn_rate": 0.1699,
    "clv_mean": 85.0,
    "seed": 2,
}

SMALL_RUN = {
    "seed": 0,
    "d_grid": ["clv/20", "clv/5"],
    "methods": ["regret_net", "logistic", "knn"],
    "model": {"learning_rate": 0.05, "epochs": 10},
    "datasets": {
        "synthetic": [
            {"name": "a", "n_train": 60, "n_test": 30, "n_features": 3, "churn_rate": 0.3, "seed": 4},
            {"name": "b", "n_train": 60, "n_test": 30, "n_features": 3, "churn_rate": 0.3, "seed": 5},
        ]
    },
}

# the JSON key of each RunConfig field, which every config error names
CONFIG_KEYS = {fld.name: ex._config_key(fld) for fld in fields(ex.RunConfig)}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestGenerate:
    def test_writes_expected_row_counts(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", JAN_SPEC)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "data")]) == 0
        out = capsys.readouterr().out
        assert "jan_train.csv" in out and "jan_test.csv" in out
        train_rows = (tmp_path / "data" / "jan_train.csv").read_text().splitlines()
        test_rows = (tmp_path / "data" / "jan_test.csv").read_text().splitlines()
        assert len(train_rows) == 787 and len(test_rows) == 198  # header + rows

    def test_seed_repeat_identical_files(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", JAN_SPEC)
        main(["generate", "--spec", spec, "--out", str(tmp_path / "d1")])
        main(["generate", "--spec", spec, "--out", str(tmp_path / "d2")])
        assert (tmp_path / "d1" / "jan_train.csv").read_bytes() == (
            tmp_path / "d2" / "jan_train.csv"
        ).read_bytes()

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"name": "x", "n_train": 2, "n_test": 30})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_json_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  broken\n}')
        assert main(["generate", "--spec", str(bad), "--out", str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err


class TestBenchmark:
    def test_small_run_outputs(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN)
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 0
        cells = list(csv.DictReader((out_dir / "benchmark_cells.csv").open()))
        assert len(cells) == 2 * 2 * 3  # datasets x d x methods
        assert all(c["status"] == "ok" for c in cells)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["per_d"]) == {"clv/20", "clv/5"}
        assert summary["failed_cells"] == []

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN)
        main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o1"), "--jobs", "1"])
        main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o2"), "--jobs", "1"])
        for name in ("benchmark_cells.csv", "summary.json"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()

    def test_missing_dataset_path_exits_1(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "run.json",
            {"datasets": [{"name": "x", "train": "nope.csv", "test": "nope.csv"}]},
        )
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_csv_datasets_roundtrip(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", dict(SMALL_RUN["datasets"]["synthetic"][0]))
        main(["generate", "--spec", spec, "--out", str(tmp_path / "data")])
        cfg = write_json(
            tmp_path / "run.json",
            {
                "d_grid": ["clv/20"],
                "methods": ["logistic"],
                "datasets": [
                    {
                        "name": "a",
                        "train": str(tmp_path / "data" / "a_train.csv"),
                        "test": str(tmp_path / "data" / "a_test.csv"),
                    }
                ],
            },
        )
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def csv_run(self, tmp_path, header, out):
        """Run logistic on dataset a, with its test file rewritten under header; the exit code."""
        spec = write_json(tmp_path / "spec.json", dict(SMALL_RUN["datasets"]["synthetic"][0], n_features=2))
        main(["generate", "--spec", spec, "--out", str(tmp_path / "data")])
        with (tmp_path / "data" / "a_test.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        test = tmp_path / f"{out}_test.csv"
        with test.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([row[{"g1": "f1", "g2": "f2"}.get(col, col)] for col in header] for row in rows)
        cfg = write_json(
            tmp_path / f"{out}.json",
            {
                "d_grid": ["clv/20"],
                "methods": ["logistic"],
                "datasets": [{"name": "a", "train": str(tmp_path / "data" / "a_train.csv"), "test": str(test)}],
            },
        )
        return main(["benchmark", "--config", cfg, "--out", str(tmp_path / out), "--jobs", "1"])

    def test_test_csv_columns_matched_by_name(self, tmp_path):
        assert self.csv_run(tmp_path, ["f1", "f2", "clv", "label"], "aligned") == 0
        assert self.csv_run(tmp_path, ["f2", "f1", "clv", "label"], "swapped") == 0
        cells = [(tmp_path / out / "benchmark_cells.csv").read_bytes() for out in ("aligned", "swapped")]
        assert cells[0] == cells[1]

    def test_test_csv_without_the_train_columns_exits_1(self, tmp_path, capsys):
        assert self.csv_run(tmp_path, ["g1", "g2", "clv", "label"], "renamed") == 1
        assert "missing feature column(s) ['f1', 'f2']" in capsys.readouterr().err
        assert not (tmp_path / "renamed").exists()

    def test_csv_without_feature_column_exits_1_before_any_cell(self, tmp_path, capsys):
        files = {}
        for split in ("train", "test"):
            files[split] = tmp_path / f"bare_{split}.csv"
            files[split].write_text("clv,label\n" + "".join(f"{10 + i}.0,{i % 2}\n" for i in range(10)))
        cfg = write_json(
            tmp_path / "run.json",
            {
                "d_grid": ["clv/20"],
                "methods": ["logistic", "regret_net"],
                "datasets": [{"name": "bare", "train": str(files["train"]), "test": str(files["test"])}],
            },
        )
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir)]) == 1
        assert f"{files['train']}: no feature column" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_partial_failure_exits_2(self, tmp_path, capsys):
        # single-class training CSV: every cell on that dataset fails
        data = tmp_path / "bad_train.csv"
        rows = ["f1,clv,label"] + [f"{i}.0,50.0,1" for i in range(20)]
        data.write_text("\n".join(rows) + "\n")
        test = tmp_path / "bad_test.csv"
        test.write_text("f1,clv,label\n1.0,50.0,1\n2.0,60.0,0\n" * 1)
        cfg = write_json(
            tmp_path / "run.json",
            {
                "d_grid": ["clv/20"],
                "methods": ["logistic"],
                "datasets": [{"name": "bad", "train": str(data), "test": str(test)}],
            },
        )
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", ["clv/0", "clv/-5", "clv/inf", "clv/nan", "clv/abc", 0, -1, float("inf")]
    )
    def test_bad_d_entry_exits_1_before_any_cell(self, tmp_path, capsys, entry):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | {"d_grid": ["clv/20", entry]})
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"d entry {entry!r}" in err and "dataset 'a'" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"baselines": {"knn_k": 0}}, "knn_k"),
            ({"baselines": {"cart_min_leaf": 0}}, "min_leaf"),
            ({"baselines": {"cart_max_depth": -1}}, "max_depth"),
            ({"smote": {"k_neighbors": 0}}, "k_neighbors"),
            ({"smote": {"ratio": 0}}, "ratio"),
            ({"cv": {"splits": 0}}, "cv_splits"),
            ({"cv": {"seeds": 0}}, "cv_seeds"),
            ({"methods": []}, "methods"),
            ({"d_grid": []}, "d_grid"),
            ({"datasets": {"synthetic": []}}, "datasets"),
            ({"model": {"epochs": 0}}, "epochs"),
            ({"model": {"learning_rate": 0}}, "learning_rate"),
            ({"model": {"hidden": 0}}, "hidden"),
            ({"model": {"batch_size": 0}}, "batch_size"),
            ({"cv": {"learning_rates": [0.01], "epochs": [0]}}, "cv grid point"),
            ({"cv": {"learning_rates": [-0.1], "epochs": [5]}}, "cv grid point"),
            ({"cv": {"learning_rates": [0.01], "epochs": [2.5]}}, "cv_epochs"),
            ({"cv": {"learning_rates": [0.01], "epochs": [True]}}, "cv_epochs"),
            ({"cv": {"learning_rates": [0.01]}}, "cv_epochs"),
            ({"baselines": {"knn_k": 2.5}}, "knn_k"),
            ({"baselines": {"cart_max_depth": 2.5}}, "cart_max_depth"),
            ({"smote": {"k_neighbors": 2.5}}, "smote_k"),
            ({"cv": {"splits": 2.0}}, "cv_splits"),
            ({"q": 1.5}, "q must be an integer"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": True}, "seed must be an integer"),
            ({"model": {"learning_rate": "0.1"}}, "learning_rate"),
            ({"smote": {"ratio": "1"}}, "smote_ratio"),
            ({"campaign": {"f": "1.36"}}, "f must be a finite number"),
            ({"class_threshold": "0.5"}, "class_threshold"),
            ({"class_threshold": float("nan")}, "class_threshold"),
            ({"drop_below_break_even": "no"}, "drop_below_break_even"),
            ({"cv": {"learning_rates": ["0.1"], "epochs": [5]}}, "cv_learning_rates"),
            ({"model": {"epoch": 1}}, "model.epoch"),
            ({"bogus": 1}, "bogus"),
            ({"model": 5}, "'model'"),
            ({"methods": "knn"}, "'methods'"),
            ({"out_dir": 5}, "out_dir"),
            ({"datasets": [5]}, "dataset entry"),
            ({"datasets": {"synthetic": [{"name": "a", "n_train": 10.5, "n_test": 20}]}}, "n_train"),
            ({"datasets": {"synthetic": [{"name": "a", "n_train": 20, "n_test": 20, "clv_sigma": 1e300}]}}, "spec"),
            ({"smote": {"k_neighbors": 2.5}}, "invalid config: smote.k_neighbors must be an integer, got 2.5"),
            ({"cv": {"splits": 0}}, "invalid config: cv.splits must be >= 1, got 0"),
            ({"model": {"epochs": 0}}, "invalid config: model.epochs must be >= 1, got 0"),
            ({"baselines": {"cart_min_leaf": 0}}, "invalid config: baselines.cart_min_leaf must be >= 1, got 0"),
            ({"cv": {"learning_rates": [0.01], "epochs": 5}}, "config key 'cv.epochs' must be a list, got 5"),
            (
                {"cv": {"learning_rates": [0.01], "epochs": [0]}},
                "cv grid point (cv.learning_rates=0.01, cv.epochs=0): epochs must be >= 1, got 0",
            ),
            ({"smote": {"seed": 1}}, "unknown config key(s) ['smote.seed']"),
            ({"model": {"loss": "cross-entropy"}}, "unknown config key(s) ['model.loss']"),
        ],
    )
    def test_out_of_range_setting_exits_1_naming_it(self, tmp_path, capsys, change, field):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | change)
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 1
        # a RunConfig field is named by its config key: cv_splits as cv.splits
        assert CONFIG_KEYS.get(field, field) in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [("f", -1), ("gamma", 0), ("gamma", 5), ("slope", 0)])
    def test_bad_campaign_value_exits_1_before_any_dataset(self, tmp_path, capsys, monkeypatch, key, value):
        built = []
        monkeypatch.setattr(cli, "_build_datasets", lambda *args: built.append(args))
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | {"campaign": {key: value}})
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"invalid config: campaign.{key} (" in err and f"got {value}" in err and "dataset" not in err
        assert built == [] and not out_dir.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"methods": ["logistic", "knn", "knn", "cart"], "d_grid": ["clv/20", "clv/20"]},
             "methods lists 'knn' more than once"),
            ({"d_grid": ["clv/20", "clv/20"]}, "d_grid lists 'clv/20' more than once"),
            ({"datasets": {"synthetic": [SMALL_RUN["datasets"]["synthetic"][0]] * 2}},
             "dataset name 'a' appears more than once"),
            ({"cv": {"learning_rates": [0.01, 0.01], "epochs": [2]}}, "cv.learning_rates lists 0.01 more than once"),
            ({"cv": {"learning_rates": [0.01], "epochs": [2, 3, 2]}}, "cv.epochs lists 2 more than once"),
        ],
        ids=["method", "d-label", "dataset", "cv-rate", "cv-epochs"],
    )
    def test_repeated_name_exits_1_before_any_fit(self, tmp_path, capsys, monkeypatch, change, message):
        fits = []
        monkeypatch.setattr(ex, "_run_task", fits.append)
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | change)
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 1
        assert message in capsys.readouterr().err
        assert fits == [] and not out_dir.exists()

    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", [SMALL_RUN])
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"q": 1000, "methods": ["msp_logistic"]}, "q must be at most the 60 training customers, got 1000"),
            # at d = clv/2, 38 of the 60 training customers lie above break-even CLV
            (
                {"q": 45, "methods": ["msp_knn"], "d_grid": ["clv/20", "clv/2"], "drop_below_break_even": True},
                "q must be at most the 38 training customers above break-even CLV at d = 'clv/2', got 45",
            ),
            (
                {"d_grid": [1e6], "drop_below_break_even": True},
                "no training customers above break-even CLV at d = 1000000.0",
            ),
        ],
        ids=["q-beyond-train", "q-beyond-above-break-even", "none-above-break-even"],
    )
    def test_too_few_training_customers_exits_1_before_any_fit(self, tmp_path, capsys, change, message):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | change)
        out_dir = tmp_path / "out"
        assert main(["benchmark", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"dataset 'a': {message}" in err and "FAILED" not in err
        assert not out_dir.exists()

    def test_features_that_overflow_standardize_exit_1_before_any_fit(self, tmp_path, capsys):
        synthetic = [dict(SMALL_RUN["datasets"]["synthetic"][0], signal=1e308)]
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | {"datasets": {"synthetic": synthetic}})
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert "dataset 'a': feature column 'f" in err and "FAILED" not in err

    def test_env_var_sets_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHURNOPT_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path / "run.json", SMALL_RUN | {"d_grid": ["clv/20"], "methods": ["knn"]})
        assert main(["benchmark", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "benchmark_cells.csv").exists()


class TestSweep:
    def test_emits_three_tables(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN)
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out_dir), "--jobs", "1"]) == 0
        for name in ("profit_vs_d.csv", "gap_vs_d.csv", "eta_profit_vs_d.csv"):
            assert (out_dir / name).exists()
        rows = list(csv.DictReader((out_dir / "profit_vs_d.csv").open()))
        assert {r["d_label"] for r in rows} == {"clv/20", "clv/5"}

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", SMALL_RUN)
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "o1"), "--jobs", "1"])
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "o2"), "--jobs", "1"])
        for name in ("profit_vs_d.csv", "gap_vs_d.csv", "eta_profit_vs_d.csv"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


class TestStats:
    def write_matrix(self, path, methods, rows):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset"] + methods)
            for name, values in rows:
                writer.writerow([name] + [repr(float(v)) for v in values])
        return str(path)

    def test_ranks_and_outcomes(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        methods = ["m1", "m2", "m3", "m4"]
        rows = [(f"d{i}", list(rng.normal([10, 5, 0, -5], 6.0))) for i in range(10)]
        matrix = self.write_matrix(tmp_path / "m.csv", methods, rows)
        assert main(["stats", "--profits", matrix, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "Friedman" in out and "m1" in out
        payload = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert payload["holm"]["best"] == "m1"
        assert payload["avg_ranks"]["m1"] < payload["avg_ranks"]["m4"]

    def test_two_methods_refused(self, tmp_path, capsys):
        matrix = self.write_matrix(
            tmp_path / "m.csv", ["a", "b"], [("d1", [1.0, 2.0]), ("d2", [2.0, 1.0])]
        )
        assert main(["stats", "--profits", matrix]) == 1
        assert "at least 3 methods" in capsys.readouterr().err

    def test_identical_columns_reject_nothing(self, tmp_path, capsys):
        matrix = self.write_matrix(
            tmp_path / "m.csv", ["a", "b", "c"],
            [("d1", [1.0, 1.0, 1.0]), ("d2", [2.0, 2.0, 2.0]), ("d3", [0.5, 0.5, 0.5])],
        )
        assert main(["stats", "--profits", matrix, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "stats.json").read_text())
        outcomes = {c["outcome"] for c in payload["holm"]["comparisons"]}
        assert outcomes == {"not reject"}

    def test_malformed_matrix(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("dataset,a,b,c\nd1,1.0,2.0\n")
        assert main(["stats", "--profits", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_repeated_method_column_exits_1_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("dataset,a,a,b,c\nd1,1.0,2.0,3.0,4.0\nd2,4.0,3.0,2.0,1.0\n")
        assert main(["stats", "--profits", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert "column 3: method 'a' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_profit_names_line(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("dataset,a,b,c\nd1,1.0,2.0,3.0\nd2,1.0,nan,3.0\n")
        assert main(["stats", "--profits", str(bad)]) == 1
        assert "line 3: non-finite" in capsys.readouterr().err

    def test_published_profit_matrix_reproduces_rank_column(self, tmp_path, capsys):
        # typing the published per-month profits into a CSV must rebuild
        # the published average-rank column to +-0.05 and the same
        # reject/not-reject outcomes
        rows = [
            (month, REFERENCE_PROFITS[:, j].tolist()) for j, month in enumerate(MONTHS)
        ]
        matrix = self.write_matrix(tmp_path / "published.csv", REFERENCE_METHODS, rows)
        assert main(["stats", "--profits", matrix, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "stats.json").read_text())
        for method, rank in payload["avg_ranks"].items():
            assert rank == pytest.approx(PUBLISHED_AVG_RANKS[method], abs=0.05)
        rejected = {
            c["method"] for c in payload["holm"]["comparisons"] if c["outcome"] == "reject"
        }
        assert rejected == REJECTED_METHODS
        assert payload["friedman"]["f_stat"] == pytest.approx(4.1018, abs=0.06)


def _dataset_config(tmp_path, data_path):
    entry = {"name": "x", "train": str(data_path), "test": str(data_path)}
    return write_json(tmp_path / "run.json", {"datasets": [entry]})


class TestFileReaders:
    """Every file the CLI reads: an unreadable one exits 1 naming its path."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda d, tmp: ["benchmark", "--config", d],
            lambda d, tmp: ["sweep", "--config", d],
            lambda d, tmp: ["generate", "--spec", d],
            lambda d, tmp: ["stats", "--profits", d],
            lambda d, tmp: ["benchmark", "--config", _dataset_config(tmp, d)],
        ],
        ids=["benchmark-config", "sweep-config", "generate-spec", "stats-profits", "dataset-csv"],
    )
    def test_directory_exits_1_naming_it(self, tmp_path, capsys, argv):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(argv(str(folder), tmp_path) + ["--out", str(tmp_path / "out")]) == 1
        assert f"{folder}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("config", b'{"seed": "\xff"}'),
            ("spec", b'{"name": "\xff"}'),
            ("profits", b"dataset,a,b,c\nd1,\xff,1,2\n"),
            ("profits", b"dataset,a,b,c\nd1," + b"1" * 131_073 + b",1,2\n"),
            ("dataset", b"f1,clv,label\n\xff,10,0\n"),
            ("dataset", b"f1,clv,label\n" + b"1" * 131_073 + b",10,0\n"),
            ("config", b"[" * 100_000),
        ],
        ids=["config-not-utf8", "spec-not-utf8", "profits-not-utf8", "profits-huge-field",
             "dataset-not-utf8", "dataset-huge-field", "config-nested-too-deep"],
    )
    def test_unreadable_file_exits_1_naming_it(self, tmp_path, capsys, kind, content):
        path = tmp_path / f"input.{kind}"
        path.write_bytes(content)
        argv = {
            "config": ["benchmark", "--config", str(path)],
            "spec": ["generate", "--spec", str(path)],
            "profits": ["stats", "--profits", str(path)],
            "dataset": ["benchmark", "--config", _dataset_config(tmp_path, path)],
        }[kind]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, output",
        [
            ("benchmark", {**SMALL_RUN, "seed": 3, "methods": ["logistic"], "d_grid": ["clv/20"]},
             "benchmark_cells.csv"),
            ("generate", JAN_SPEC, "jan_train.csv"),
        ],
        ids=["benchmark-config", "generate-spec"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, command, payload, output):
        flag = "--config" if command == "benchmark" else "--spec"
        plain = write_json(tmp_path / "plain.json", payload)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + json.dumps(payload).encode())
        assert main([command, flag, plain, "--out", str(tmp_path / "o1")]) == 0
        assert main([command, flag, str(marked), "--out", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o1" / output).read_bytes() == (tmp_path / "o2" / output).read_bytes()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        content=st.one_of(
            st.binary(max_size=200),
            st.lists(
                st.sampled_from(
                    ["dataset", "a", "b", "c", ",", "\n", '"', "0", "1", "-2.5", "1e308", "-1e308", "nan", "\xff"]
                ),
                max_size=60,
            ).map(lambda parts: "".join(parts).encode("latin-1")),
        )
    )
    def test_stats_on_any_bytes_exits_0_or_1(self, tmp_path, content):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(content)
        assert main(["stats", "--profits", str(path), "--out", str(tmp_path / "out")]) in (0, 1)


class TestParsing:
    def test_unknown_flag_fails_fast(self, capsys):
        assert main(["benchmark", "--bogus"]) == 1

    def test_unknown_command_fails(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "benchmark" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark", "--alpha", "0"],
            ["benchmark", "--alpha", "1"],
            ["benchmark", "--alpha", "nan"],
            ["stats", "--profits", "m.csv", "--alpha", "1.5"],
            ["benchmark", "--jobs", "0"],
            ["benchmark", "--jobs", "-4"],
            ["sweep", "--jobs", "0"],
        ],
    )
    def test_bad_alpha_or_jobs_rejected_before_any_work(self, tmp_path, capsys, argv):
        out_dir = tmp_path / "out"
        assert main(argv + ["--out", str(out_dir)]) == 1
        assert f"argument {argv[-2]}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--out", "--jobs", "--alpha"):
            assert flag in text


# every key a run config can hold, with small valid values
FUZZ_BASE = {
    "seed": 0,
    "out_dir": "out",
    "campaign": {"f": 1.36, "gamma": 0.3, "slope": 10.0},
    "d_grid": ["clv/20", 3.0],
    "methods": ["regret_net", "msp_knn"],
    "q": 2,
    "model": {"hidden": 2, "learning_rate": 0.05, "epochs": 2, "batch_size": 16},
    "cv": {"learning_rates": [0.01], "epochs": [2], "splits": 2, "seeds": 1},
    "smote": {"k_neighbors": 3, "ratio": 1.0},
    "baselines": {"knn_k": 3, "cart_max_depth": 2, "cart_min_leaf": 2},
    "class_threshold": 0.5,
    "regret_net_accuracy": "threshold",
    "drop_below_break_even": False,
    "datasets": {
        "synthetic": [
            {
                "name": "a", "n_train": 40, "n_test": 20, "n_features": 3, "churn_rate": 0.3,
                "clv_mean": 85.0, "clv_sigma": 0.8, "signal": 1.2, "clv_churn_corr": 0.0, "seed": 4,
            }
        ]
    },
}

# integers stay small enough that a synthetic spec of that size is cheap to draw
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.sampled_from([2**63, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (dict key | list index) path below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _set(config, path, value):
    try:
        node = functools.reduce(operator.getitem, path[:-1], config)
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier change removed the path


class TestConfigFuzz:
    """Random JSON in any config key: a config error (exit 1) or a plan, never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_config_stage_raises_only_config_errors(self, data):
        config = copy.deepcopy(FUZZ_BASE)
        paths = list(_paths(FUZZ_BASE))
        dicts = [()] + [p for p in paths if isinstance(functools.reduce(operator.getitem, p, FUZZ_BASE), dict)]
        for _ in range(data.draw(st.integers(1, 3), label="changes")):
            if data.draw(st.booleans(), label="new key"):
                path = data.draw(st.sampled_from(dicts)) + (data.draw(st.text(max_size=6), label="key"),)
            else:
                path = data.draw(st.sampled_from(paths), label="path")
            _set(config, path, data.draw(JSON_VALUES, label="value"))
        config = json.loads(json.dumps(config))  # what the CLI reads back
        try:
            cfg = cli._run_config(config)
            datasets = cli._build_datasets(config, cfg)
            ex._plan(datasets, cfg)  # the CLI turns its ValueError into exit 1
        except (cli._CliError, ValueError):
            pass

    def test_fuzz_base_sets_every_run_config_key(self):
        written = {".".join(map(str, path)) for path in _paths(FUZZ_BASE)}
        assert set(CONFIG_KEYS.values()) <= written


def test_readme_run_config_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Run config (JSON)", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert cli._run_config(json.loads(block)) == ex.RunConfig()
