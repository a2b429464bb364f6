"""bench/bench.py's probe and CSV steps, with canned child output in place of real runs."""

import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "bench" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PROBES = ("probe.knn_scores_ms", "probe.mp_ms", "probe.adam_step_us", "probe.fit_cart_ms", "probe.smote_balance_ms")
SRCS = {"base": Path("/base/src"), "change": Path("/change/src")}


@pytest.fixture
def child_runs(monkeypatch):
    """Replace bench's subprocess.run; each call answers probe values 100 * side + call number."""
    runs = []

    def run(cmd, env, capture_output, text):
        side = next(side for side, src in SRCS.items() if env["PYTHONPATH"] == str(src))
        runs.append((side, cmd))
        offset = 100 if side == "base" else 200
        stdout = json.dumps({probe: offset + len(runs) + i / 10 for i, probe in enumerate(PROBES)})
        return SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    return runs


def test_runs_the_probes_step_alternating_sides(child_runs):
    bench.bench_probes(SRCS, reps=3)
    assert [side for side, _ in child_runs] == ["base", "change", "change", "base", "base", "change"]
    assert all(cmd[1:] == [str(bench.CHILD), "probes", "0"] for _, cmd in child_runs)


def test_tabulates_each_probe_per_side(child_runs):
    table = bench.bench_probes(SRCS, reps=3)
    assert list(table) == sorted(PROBES)
    # calls 1, 4, 5 ran the base side and 2, 3, 6 the change side
    assert table["probe.knn_scores_ms"]["base"]["runs"] == [101.0, 104.0, 105.0]
    assert table["probe.knn_scores_ms"]["change"] == {"median": 203.0, "q1": 202.5, "q3": 204.5,
                                                      "runs": [202.0, 203.0, 206.0]}
    assert table["probe.mp_ms"]["base"]["median"] == pytest.approx(104.1)


def test_failed_child_stops_naming_its_side(monkeypatch):
    def run(cmd, env, capture_output, text):
        if env["PYTHONPATH"] == str(SRCS["base"]):
            return SimpleNamespace(returncode=0, stdout=json.dumps(dict.fromkeys(PROBES, 1.0)), stderr="")
        return SimpleNamespace(returncode=1, stdout="", stderr="Traceback ...\nImportError: cannot import name 'mp'\n")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    with pytest.raises(SystemExit, match=r"change side \(/change/src\) exited 1(.|\n)*ImportError: cannot import"):
        bench.bench_probes(SRCS, reps=1)


@pytest.fixture
def csv_runs(monkeypatch):
    """Replace bench's subprocess.run; timed load number k answers 1 (base) or 2 (change) + (7 * k mod 100) / 100."""
    runs = []

    def run(cmd, env, capture_output, text):
        side = next(side for side, src in SRCS.items() if env["PYTHONPATH"] == str(src))
        runs.append((side, cmd))
        stdout = "" if cmd[2] == bench.WRITE_CSV else f"{1 if side == 'base' else 2}.{7 * len(runs) % 100:02d}\n"
        return SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    return runs


def test_csv_step_writes_once_then_times_alternating_sides(csv_runs, tmp_path):
    bench.bench_csv(SRCS, reps=3, tmp=tmp_path)
    path = str(tmp_path / "load.csv")
    assert csv_runs[0] == ("change", [bench.sys.executable, "-c", bench.WRITE_CSV, path, "20000"])
    # each rep alternates the sides child by child, and the rep's first side alternates too
    assert bench.CSV_CHILDREN == 5
    sides = ["base", "change"] * 5 + ["change", "base"] * 5 + ["base", "change"] * 5
    assert [side for side, _ in csv_runs[1:]] == sides
    assert all(cmd[1:] == ["-c", bench.TIME_LOAD, path] for _, cmd in csv_runs[1:])


def test_csv_step_tabulates_each_side(csv_runs, tmp_path):
    table = bench.bench_csv(SRCS, reps=3, tmp=tmp_path)
    # call 1 wrote the file; calls 2-11, 12-21 and 22-31 were the three reps, and in the
    # second rep the base side's fastest child (call 15, .05) was not its first (call 13, .91)
    assert table == {
        "base": {"median": 1.1, "q1": 1.075, "q3": 1.12, "runs": [1.14, 1.05, 1.1],
                 "children": [[1.14, 1.28, 1.42, 1.56, 1.7], [1.91, 1.05, 1.19, 1.33, 1.47],
                              [1.54, 1.68, 1.82, 1.96, 1.1]]},
        "change": {"median": 2.12, "q1": 2.075, "q3": 2.165, "runs": [2.21, 2.12, 2.03],
                   "children": [[2.21, 2.35, 2.49, 2.63, 2.77], [2.84, 2.98, 2.12, 2.26, 2.4],
                                [2.61, 2.75, 2.89, 2.03, 2.17]]},
    }


def test_load_timer_warms_once_then_prints_the_fastest_call(monkeypatch, capsys):
    import churnopt.data

    clock, durations, calls = [0.0], [0.5, 5, 1, 4, 2, 3, 9, 7], []

    def load_dataset(path):
        calls.append(path)
        clock[0] += durations[len(calls) - 1]

    monkeypatch.setattr(churnopt.data, "load_dataset", load_dataset)
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(sys, "argv", ["-c", "load.csv"])
    assert bench.LOAD_CALLS == len(durations) - 1
    exec(bench.TIME_LOAD, {})
    assert calls == ["load.csv"] * len(durations)
    assert float(capsys.readouterr().out) == 1.0  # the warm call is not timed


def test_cli_step_tabulates_wall_and_peak_rss_per_side_and_job_count(monkeypatch, tmp_path):
    runs = []

    def run(cmd, env, cwd, timeout_s):
        """Write fixed outputs; wall is call number + jobs / 10, peak RSS 100 (base) or 200 (change) + call number."""
        side = next(side for side, src in SRCS.items() if env["PYTHONPATH"] == str(src))
        runs.append((side, cmd[-1]))
        (cwd / "out").mkdir(exist_ok=True)
        for name in bench.OUTPUTS:
            (cwd / "out" / name).write_text(name)
        offset = 100 if side == "base" else 200
        return SimpleNamespace(returncode=0, wall_s=len(runs) + int(cmd[-1]) / 10, peak_rss_mb=offset + len(runs),
                               stderr="")

    monkeypatch.setattr(bench, "measure", SimpleNamespace(run=run))
    tables, sha256 = bench.bench_cli(SRCS, reps=2, tmp=tmp_path)
    assert runs == [("base", "1"), ("change", "1"), ("base", "2"), ("change", "2"),
                    ("change", "1"), ("base", "1"), ("change", "2"), ("base", "2")]
    assert tables["wall_s"]["jobs2"]["change"]["runs"] == [4.2, 7.2]
    assert tables["peak_rss_mb"]["jobs1"] == {"base": {"median": 103.5, "q1": 102.25, "q3": 104.75, "runs": [101, 106]},
                                              "change": {"median": 203.5, "q1": 202.75, "q3": 204.25,
                                                         "runs": [202, 205]}}
    assert sha256 == {name: bench.hashlib.sha256(name.encode()).hexdigest() for name in bench.OUTPUTS}


def test_failed_benchmark_run_stops_naming_its_side(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "measure", SimpleNamespace(
        run=lambda cmd, env, cwd, timeout_s: SimpleNamespace(returncode=1, stderr="RuntimeError: worker died\n")))
    with pytest.raises(SystemExit, match=r"base side \(/base/src\) exited 1: -m churnopt.cli benchmark(.|\n)*worker died"):
        bench.bench_cli(SRCS, reps=1, tmp=tmp_path)


@pytest.mark.parametrize("table", ["profit_vs_d.csv", "gap_vs_d.csv", "eta_profit_vs_d.csv"])
def test_differing_table_bytes_stop_the_script(monkeypatch, tmp_path, table):
    def run(cmd, env, cwd, timeout_s):
        """Write the same outputs on both sides, but for one table whose bytes name the side."""
        side = next(side for side, src in SRCS.items() if env["PYTHONPATH"] == str(src))
        (cwd / "out").mkdir(exist_ok=True)
        for name in bench.OUTPUTS:
            (cwd / "out" / name).write_text(side if name == table else name)
        return SimpleNamespace(returncode=0, wall_s=1.0, peak_rss_mb=100.0, stderr="")

    monkeypatch.setattr(bench, "measure", SimpleNamespace(run=run))
    with pytest.raises(SystemExit, match=f"output bytes differ between runs: .*'{table}'"):
        bench.bench_cli(SRCS, reps=1, tmp=tmp_path)


def test_env_names_the_openblas_core_numpy_runs():
    """A fresh interpreter under OPENBLAS_CORETYPE=Haswell reads "Haswell"."""
    if bench._blas_core() is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("needs numpy's bundled OpenBLAS on x86-64")
    code = f"import runpy; print(runpy.run_path({str(ROOT / 'bench' / 'bench.py')!r})['_blas_core']())"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Haswell\n"


def test_env_blas_core_is_null_without_a_bundled_openblas(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "np", SimpleNamespace(__file__=str(tmp_path / "numpy" / "__init__.py")))
    assert bench._blas_core() is None
