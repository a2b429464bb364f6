"""bench/bench.py's probe and CSV steps, with canned child output in place of real runs."""

import importlib.util
import json
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
    """Replace bench's subprocess.run; each timed load answers 1 (base) or 2 (change) + call number / 100."""
    runs = []

    def run(cmd, env, capture_output, text):
        side = next(side for side, src in SRCS.items() if env["PYTHONPATH"] == str(src))
        runs.append((side, cmd))
        stdout = "" if cmd[2] == bench.WRITE_CSV else f"{1 if side == 'base' else 2}.{len(runs):02d}\n"
        return SimpleNamespace(returncode=0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run))
    return runs


def test_csv_step_writes_once_then_times_alternating_sides(csv_runs, tmp_path):
    bench.bench_csv(SRCS, reps=3, tmp=tmp_path)
    path = str(tmp_path / "load.csv")
    assert csv_runs[0] == ("change", [bench.sys.executable, "-c", bench.WRITE_CSV, path, "20000"])
    assert [side for side, _ in csv_runs[1:]] == ["base", "change", "change", "base", "base", "change"]
    assert all(cmd[1:] == ["-c", bench.TIME_LOAD, path] for _, cmd in csv_runs[1:])


def test_csv_step_tabulates_each_side(csv_runs, tmp_path):
    table = bench.bench_csv(SRCS, reps=3, tmp=tmp_path)
    # call 1 wrote the file; calls 2, 5, 6 timed the base side and 3, 4, 7 the change side
    assert table == {"base": {"median": 1.05, "q1": 1.035, "q3": 1.055, "runs": [1.02, 1.05, 1.06]},
                     "change": {"median": 2.04, "q1": 2.035, "q3": 2.055, "runs": [2.03, 2.04, 2.07]}}
