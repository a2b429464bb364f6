"""bench/bench.py's steps, with canned child output in place of real runs; one test runs the real kernel timer."""

import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from churnopt import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "bench" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SRCS = {"base": Path("/base/src"), "change": Path("/change/src")}
KERNELS = ("load_dataset", "knn_scores", "mp", "fit_cart", "smote_balance", "xent_epoch", "regret_epoch")
# timing child r prints base BASE[r] and change CHANGE[r], times 8**-i for kernel i (exact in binary), and ratio
# RATIO[r]
BASE, CHANGE, RATIO = (1.0, 2.0, 4.0), (3.0, 5.0, 6.0), (1.25, 0.75, 1.0)


@pytest.fixture
def kernel_runs(monkeypatch):
    """Replace bench's subprocess.run; each call is a timing child answering every kernel."""
    runs = []

    def run(cmd, capture_output, text):
        r = len(runs)
        runs.append(cmd)
        times = {kernel: {"change": CHANGE[r] * 8.0**-i, "base": BASE[r] * 8.0**-i, "ratio": RATIO[r]}
                 for i, kernel in enumerate(KERNELS)}
        return SimpleNamespace(returncode=0, stdout=json.dumps(times), stderr="")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    return runs


def test_runs_the_probes_step_alternating_sides(kernel_runs, tmp_path):
    """The kernel step, which times the probed kernels: one timing child per rep, never perfbench's child."""
    bench.bench_kernels(SRCS, reps=3, tmp=tmp_path)
    # each child gets both package directories, and the side that goes first alternates by rep
    first_base = ["base", "/base/src/churnopt", "change", "/change/src/churnopt"]
    first_change = first_base[2:] + first_base[:2]
    assert kernel_runs == [[bench.sys.executable, "-c", bench.TIMER, str(tmp_path), *trees]
                           for trees in (first_base, first_change, first_base)]


def test_tabulates_each_probe_per_side(kernel_runs, tmp_path):
    table = bench.bench_kernels(SRCS, reps=3, tmp=tmp_path)
    assert list(table) == list(KERNELS)
    for i, kernel in enumerate(KERNELS):
        # unrounded: the last kernel's times lie far below 0.1 ms
        scale = 8.0**-i
        assert table[kernel] == {
            "base": {"median": 2 * scale, "q1": 1.5 * scale, "q3": 3 * scale, "runs": [b * scale for b in BASE]},
            "change": {"median": 5 * scale, "q1": 4 * scale, "q3": 5.5 * scale, "runs": [c * scale for c in CHANGE]},
            # each child's own ratio, not one of its two fastest calls over the other's
            "ratio": {"median": 1.0, "q1": 0.875, "q3": 1.125, "runs": [1.25, 0.75, 1.0]},
        }


def test_csv_step_tabulates_each_side(kernel_runs, tmp_path):
    """The CSV load is the kernel step's load_dataset entry, with each side's stats and the ratio's."""
    assert bench.bench_kernels(SRCS, reps=3, tmp=tmp_path)["load_dataset"] == {
        "base": {"median": 2.0, "q1": 1.5, "q3": 3.0, "runs": [1.0, 2.0, 4.0]},
        "change": {"median": 5.0, "q1": 4.0, "q3": 5.5, "runs": [3.0, 5.0, 6.0]},
        "ratio": {"median": 1.0, "q1": 0.875, "q3": 1.125, "runs": [1.25, 0.75, 1.0]},
    }


def test_failed_child_stops_naming_its_side(monkeypatch, tmp_path):
    def run(cmd, capture_output, text):
        return SimpleNamespace(returncode=1, stdout="", stderr="Traceback ...\nAttributeError: no attribute 'mp'\n")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    with pytest.raises(SystemExit, match=r"base and change side \(/base/src, /change/src\) exited 1(.|\n)*no attribute"):
        bench.bench_kernels(SRCS, reps=1, tmp=tmp_path)


class _Clock:
    """perf_counter for the timer: each fake kernel call advances it by that side's next duration of that kernel."""

    def __init__(self, durations):
        self.now, self.durations, self.calls = 0.0, durations, []

    def __call__(self):
        return self.now

    def call(self, side, kernel):
        self.now += self.durations[side, kernel][sum(c == (side, kernel) for c in self.calls)]
        self.calls.append((side, kernel))


def _run_timer(monkeypatch, tmp_path, durations, rounds):
    """Run bench.time_kernels on two empty packages, change first, with fake kernels advancing a _Clock."""
    clock = _Clock(durations)
    built = []

    def kernels(co, csv):
        side = co.__name__.removeprefix("churnopt_")
        # which side builds its inputs, its CSV among them, and how many calls had run by then
        built.append((side, csv, len(clock.calls)))
        return {kernel: partial(clock.call, side, kernel) for kernel in KERNELS}

    args = []
    for side in ("change", "base"):
        pkg = tmp_path / side / "churnopt"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        args += [side, str(pkg)]
    monkeypatch.setattr(bench, "ROUNDS", rounds)
    monkeypatch.setattr(bench, "_kernels", kernels)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=clock))
    try:
        bench.time_kernels(str(tmp_path), *args)
    finally:
        for side in ("base", "change"):
            sys.modules.pop(f"churnopt_{side}", None)
    return built, clock


def test_csv_step_writes_once_then_times_alternating_sides(monkeypatch, tmp_path):
    rounds = 4
    durations = {(side, kernel): [1.0] * (rounds + 1) for side in bench.SIDES for kernel in KERNELS}
    built, clock = _run_timer(monkeypatch, tmp_path, durations, rounds)
    # each side writes its CSV once, before any timed call
    assert built == [("change", tmp_path / "change.csv", 0), ("base", tmp_path / "base.csv", 0)]
    # then a warm round and rounds timed rounds of load_dataset, the side that goes first flipping every round
    loads = [side for side, kernel in clock.calls if kernel == "load_dataset"]
    assert loads == ["change", "base", "base", "change"] * 2 + ["change", "base"]


def test_timer_warms_once_then_keeps_the_fastest_calls_and_the_median_round(monkeypatch, tmp_path, capsys):
    rounds = 5
    durations = {}
    for i, kernel in enumerate(KERNELS):
        # the warm calls come first and are the fastest of all, and must not count
        durations["base", kernel] = [(i + 1) * d for d in (0.5, 8, 4, 2, 8, 4)]
        durations["change", kernel] = [(i + 1) * d for d in (0.25, 6, 3, 4, 1, 6)]
    built, clock = _run_timer(monkeypatch, tmp_path, durations, rounds)
    assert built == [("change", tmp_path / "change.csv", 0), ("base", tmp_path / "base.csv", 0)]
    # kernel by kernel, the sides take turns, and the side that goes first flips every round
    rounds_of = [("change", "base"), ("base", "change")] * (rounds // 2 + 1)
    assert clock.calls == [(side, kernel) for kernel in KERNELS for pair in rounds_of[: rounds + 1] for side in pair]
    # the rounds' ratios are 6/8, 3/4, 4/2, 1/8 and 6/4, so their median is 0.75, where the fastest calls give 1/2
    assert json.loads(capsys.readouterr().out) == {kernel: {"change": i + 1.0, "base": 2.0 * (i + 1), "ratio": 0.75}
                                                   for i, kernel in enumerate(KERNELS)}


def test_timer_times_every_kernel_on_each_tree_under_its_own_name(tmp_path):
    """The real timing child on two copies of src/: every kernel reads positive times and ratio on both sides."""
    args = []
    for side in bench.SIDES:
        pkg = tmp_path / side / "churnopt"
        shutil.copytree(ROOT / "src" / "churnopt", pkg, ignore=shutil.ignore_patterns("__pycache__"))
        args += [side, str(pkg)]
    # every mp call of the base copy sleeps 10 ms, far longer than mp itself
    metrics = tmp_path / "base" / "churnopt" / "metrics.py"
    metrics.write_text(metrics.read_text().replace("def mp(", "def _mp(") +
                       "\n\ndef mp(*args, **kwargs):\n    import time\n    time.sleep(0.01)\n"
                       "    return _mp(*args, **kwargs)\n")
    done = subprocess.run([sys.executable, "-c", bench.TIMER, str(tmp_path), *args], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert list(result) == list(KERNELS)
    assert all(sorted(times) == ["base", "change", "ratio"] and min(times.values()) > 0 for times in result.values())
    assert result["mp"]["base"] >= 0.01 > result["mp"]["change"] and result["mp"]["ratio"] < 0.5


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


@pytest.mark.parametrize("config", [None, bench.SCALE_RUN])
def test_cli_step_runs_the_bundled_grid_or_the_given_config(monkeypatch, tmp_path, config):
    runs = []

    def run(cmd, env, cwd, timeout_s):
        """Record each command and the config it names, then write fixed outputs."""
        flags = cmd[cmd.index("benchmark") + 1 :]
        runs.append((flags, json.loads((cwd / flags[1]).read_text()) if "--config" in flags else None))
        (cwd / "out").mkdir(exist_ok=True)
        for name in bench.OUTPUTS:
            (cwd / "out" / name).write_text(name)
        return SimpleNamespace(returncode=0, wall_s=1.0, peak_rss_mb=100.0, stderr="")

    monkeypatch.setattr(bench, "measure", SimpleNamespace(run=run))
    tables, _ = bench.bench_cli(SRCS, reps=1, tmp=tmp_path, config=config)
    config_flags = [] if config is None else ["--config", "run.json"]
    assert runs == [([*config_flags, "--out", "out", "--jobs", jobs], config) for jobs in "1122"]
    assert sorted(tables) == ["peak_rss_mb", "wall_s"] and sorted(tables["wall_s"]) == ["jobs1", "jobs2"]


def test_scale_config_is_a_valid_run_without_knn():
    cfg = cli._run_config(bench.SCALE_RUN)
    assert set(cfg.methods) == {"regret_net", "logistic", "cart"} and cfg.epochs == 3
    assert [(len(train), len(test)) for _, train, test in cli._build_datasets(bench.SCALE_RUN, cfg)] == [
        (30_000, 10_000)] * 2


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
