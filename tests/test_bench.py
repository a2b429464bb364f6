"""bench/bench.py's steps, with canned child output in place of real runs; one test runs the real CSV timer."""

import importlib.util
import json
import os
import platform
import shutil
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
    """Replace bench's subprocess.run; timing child r answers base 1 + r / 10 and change 2 + (3 - r) / 10."""
    runs = []

    def run(cmd, env, capture_output, text):
        runs.append((env["PYTHONPATH"], cmd))
        r = len(runs) - 1
        stdout = "" if cmd[2] == bench.WRITE_CSV else json.dumps({"change": 2 + (3 - r) / 10, "base": 1 + r / 10})
        return SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    return runs


def test_csv_step_writes_once_then_times_alternating_sides(csv_runs, tmp_path):
    bench.bench_csv(SRCS, reps=3, tmp=tmp_path)
    path = str(tmp_path / "load.csv")
    assert csv_runs[0] == ("/change/src", [bench.sys.executable, "-c", bench.WRITE_CSV, path, "2000"])
    # each child gets both package directories, and the side that goes first alternates by rep
    first_base = ["base", "/base/src/churnopt", "change", "/change/src/churnopt"]
    first_change = first_base[2:] + first_base[:2]
    assert [cmd[1:] for _, cmd in csv_runs[1:]] == [["-c", bench.TIME_LOAD, path, *trees]
                                                    for trees in (first_base, first_change, first_base)]
    both = [os.pathsep.join(srcs) for srcs in (("/base/src", "/change/src"), ("/change/src", "/base/src"))]
    assert [env for env, _ in csv_runs[1:]] == [both[0], both[1], both[0]]


def test_csv_step_tabulates_each_side(csv_runs, tmp_path):
    assert bench.bench_csv(SRCS, reps=3, tmp=tmp_path) == {
        "base": {"median": 1.2, "q1": 1.15, "q3": 1.25, "runs": [1.1, 1.2, 1.3]},
        "change": {"median": 2.1, "q1": 2.05, "q3": 2.15, "runs": [2.2, 2.1, 2.0]},
    }


class _Clock:
    """perf_counter for the timer script: each fake load_dataset call advances it by that side's next duration."""

    def __init__(self, durations):
        self.now, self.durations, self.calls = 0.0, durations, []

    def __call__(self):
        return self.now

    def load(self, side, path):
        self.now += self.durations[side][sum(s == side for s, _ in self.calls)]
        self.calls.append((side, path))


def test_load_timer_warms_once_then_prints_the_fastest_call(monkeypatch, tmp_path, capsys):
    # the warm calls are the fastest of all and must not count
    durations = {"base": [0.5] + [5 + k % 7 for k in range(bench.LOAD_CALLS)],
                 "change": [0.25] + [4 + (k % 5) / 2 for k in range(bench.LOAD_CALLS)]}
    durations["base"][17], durations["change"][33] = 1.5, 1.25
    clock = _Clock(durations)
    args = []
    for side in ("change", "base"):
        pkg = tmp_path / side / "churnopt"
        pkg.mkdir(parents=True)
        init = f"import time\n\n\ndef load_dataset(path):\n    time.perf_counter.load({side!r}, path)\n"
        (pkg / "__init__.py").write_text(init)
        args += [side, str(pkg)]
    monkeypatch.setattr(time, "perf_counter", clock)
    monkeypatch.setattr(sys, "argv", ["-c", "load.csv", *args])
    try:
        exec(bench.TIME_LOAD, {})
    finally:
        for side in ("base", "change"):
            sys.modules.pop(f"churnopt_{side}", None)
    # the sides take turns, and the side that goes first flips every round
    rounds = [("change", "base"), ("base", "change")] * (bench.LOAD_CALLS // 2 + 1)
    assert clock.calls == [(side, "load.csv") for pair in rounds[: bench.LOAD_CALLS + 1] for side in pair]
    assert json.loads(capsys.readouterr().out) == {"change": 1.25, "base": 1.5}


def test_load_timer_loads_each_tree_under_its_own_name(tmp_path):
    """The real script on two copies of src/: the slowed copy's fastest call is the slower one."""
    from churnopt import SyntheticSpec, generate_synthetic, save_dataset

    path = save_dataset(generate_synthetic(SyntheticSpec("csv", 40, 10, n_features=3))[0], tmp_path / "load.csv")
    args = []
    for side in bench.SIDES:
        pkg = tmp_path / side / "churnopt"
        shutil.copytree(ROOT / "src" / "churnopt", pkg, ignore=shutil.ignore_patterns("__pycache__"))
        args += [side, str(pkg)]
    # every call of the base copy sleeps 10 ms, far longer than a 40-row load
    data = tmp_path / "base" / "churnopt" / "data.py"
    data.write_text(data.read_text().replace("def load_dataset(", "def _load(") +
                    "\n\ndef load_dataset(*args, **kwargs):\n    import time\n    time.sleep(0.01)\n"
                    "    return _load(*args, **kwargs)\n")
    done = subprocess.run([sys.executable, "-c", bench.TIME_LOAD, str(path), *args], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    fastest = json.loads(done.stdout)
    assert sorted(fastest) == ["base", "change"]
    assert fastest["base"] >= 0.01 > fastest["change"] > 0


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
