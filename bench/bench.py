"""Write a BENCH_*.json: hot-kernel times and the bundled benchmark's wall time, before and after a change.

    python bench/bench.py --base REV --out BENCH_N.json [--reps 3]

Times ``src/`` of git revision REV ("base") against this checkout's
``src/`` ("change"), reps times per step:

- kernels: one child per rep loads both trees' ``churnopt`` and runs
  ROUNDS rounds of one call per side of each of _kernels' calls: stats
  of each side's fastest call (s) and of the rounds' median change/base;
- wall_s and peak_rss_mb: the default bundled `churnopt benchmark` at
  --jobs 1 and 2, once per side, alternating which goes first, through
  ``perfbench/measure.py``: start to exit, and the largest resident
  memory summed over the process tree at one instant (10 ms samples);
- scale: the same two metrics, and the output hashes, of the SCALE_RUN
  config: two generated datasets of 30,000 training and 10,000 test rows.

It records the sha256 of every file a benchmark run writes, failing if
one differs between runs, sides or job counts, and stops naming the side
when a child exits non-zero. env records the BLAS thread variables the
runs inherit and numpy's OpenBLAS kernel set (blas_core; null if none).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import measure  # noqa: E402  perfbench's process-tree sampler

OUTPUTS = ("benchmark_cells.csv", "summary.json", "profit_vs_d.csv", "gap_vs_d.csv", "eta_profit_vs_d.csv")
SIDES = ("base", "change")
ORDERS = (SIDES, SIDES[::-1])  # rep r runs ORDERS[r % 2]
ROUNDS = 40
TIMER = f"import runpy, sys; runpy.run_path({str(Path(__file__).resolve())!r})['time_kernels'](*sys.argv[1:])"
# two 30,000 + 10,000-row datasets, with no knn, whose search is quadratic in the rows
SCALE_RUN = {
    "d_grid": ["clv/20", "clv/10"],
    "methods": ["regret_net", "logistic", "cart"],
    "model": {"epochs": 3},
    "datasets": {"synthetic": [{"name": f"scale{i}", "n_train": 30_000, "n_test": 10_000, "seed": i} for i in (1, 2)]},
}
# thread-count variables read by the BLAS builds numpy ships with, and by OpenMP
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _blas_core() -> str | None:
    """The kernel set the OpenBLAS in numpy's wheel directory numpy.libs runs (say "SkylakeX"), or None without one."""
    for lib in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _check(side: str, src: Path | str, returncode: int, args, stderr: str) -> None:
    if returncode != 0:
        raise SystemExit(f"{side} side ({src}) exited {returncode}: {' '.join(args)}\n{stderr[-2000:]}")


def _stats(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": samples}


def _kernels(co, csv: Path) -> dict:
    """The timed kernels, as calls on seeded inputs built through the churnopt package co: a 2,000-row CSV
    (regret_tune_csv's largest), the bundled dec month, and one train_stack epoch as xent_net and regret_net train."""
    co.save_dataset(co.generate_synthetic(co.SyntheticSpec("csv", 2_000, 10))[0], csv)
    train, test = co.standardize(*co.generate_synthetic(co.bundled_specs()[-1]))
    balanced = co.smote_balance(train, co.SmoteConfig())
    cfg = co.RunConfig()
    campaigns = [cfg.campaign(co.experiments.resolve_d(entry, train.clvs.mean())) for entry in cfg.d_grid]
    net = (train.n_features, co.models.default_hidden(train.n_features))
    xent = [co.StackSlice(co.init_mlp(*net), campaigns[0], co.TrainConfig(epochs=1, loss="cross-entropy"))]
    regret = [co.StackSlice(co.init_mlp(*net, seed=j), c, co.TrainConfig(epochs=1)) for j, c in enumerate(campaigns)]
    scores = co.knn_scores(balanced, train.features, 5)
    return {
        "load_dataset": lambda: co.load_dataset(csv),
        "knn_scores": lambda: co.knn_scores(balanced, test.features, 5),
        "mp": lambda: co.mp(scores, train.labels, campaigns[0], train.clvs.mean()),
        "fit_cart": lambda: co.fit_cart(balanced, co.models.CartConfig()),
        "smote_balance": lambda: co.smote_balance(train, co.SmoteConfig()),
        "xent_epoch": lambda: co.train_stack(balanced, xent),
        "regret_epoch": lambda: co.train_stack(train, regret),
    }


def time_kernels(tmp: str, *trees: str) -> None:
    """Print {kernel: {side: fastest call, "ratio": median change/base of a round}} of side and package pairs."""
    calls = {}
    for side, pkg in zip(trees[::2], trees[1::2]):  # a module goes in sys.modules before it runs, for dataclass
        spec = spec_from_file_location(f"churnopt_{side}", f"{pkg}/__init__.py", submodule_search_locations=[pkg])
        module = sys.modules[spec.name] = module_from_spec(spec)
        spec.loader.exec_module(module)
        calls[side] = _kernels(module, Path(tmp) / f"{side}.csv")
    results = {}
    for kernel in calls["base"]:
        sides, times = list(calls), {side: [] for side in calls}
        for _ in range(ROUNDS + 1):  # the first round warms each side
            for side in sides:
                start = time.perf_counter()
                calls[side][kernel]()
                times[side].append(time.perf_counter() - start)
            sides.reverse()
        base, change = times["base"][1:], times["change"][1:]
        # a round's two calls run back to back, so their ratio cancels what the host did meanwhile
        results[kernel] = {"base": min(base), "change": min(change),
                           "ratio": statistics.median(c / b for b, c in zip(base, change))}
    print(json.dumps(results))


def bench_kernels(srcs: dict[str, Path], reps: int, tmp: Path) -> dict:
    """{kernel: {side or "ratio": stats}} over reps; one child per rep times both sides."""
    results = []
    for rep in range(reps):
        trees = [arg for side in ORDERS[rep % 2] for arg in (side, str(srcs[side] / "churnopt"))]
        args = ["-c", TIMER, str(tmp), *trees]
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True)
        _check(" and ".join(ORDERS[rep % 2]), ", ".join(map(str, srcs.values())), done.returncode, args, done.stderr)
        results.append(json.loads(done.stdout))
    return {kernel: {key: _stats([rep[kernel][key] for rep in results]) for key in (*SIDES, "ratio")}
            for kernel in results[0]}


def bench_cli(srcs: dict[str, Path], reps: int, tmp: Path, config: dict | None = None) -> tuple[dict, dict]:
    """{metric: {f"jobs{n}": {side: stats}}} for wall_s and peak_rss_mb of a run, and its sha256s.

    The run is the default bundled one, or the one the run config `config` describes.
    """
    samples = {(side, jobs): [] for side in SIDES for jobs in (1, 2)}
    hashes = set()
    flags = []
    if config is not None:
        (tmp / "run.json").write_text(json.dumps(config), encoding="utf-8")
        flags = ["--config", "run.json"]
    for rep in range(reps):
        for jobs in (1, 2):
            for side in ORDERS[rep % 2]:
                args = ["-m", "churnopt.cli", "benchmark", *flags, "--out", "out", "--jobs", str(jobs)]
                m = measure.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(srcs[side])), cwd=tmp,
                                timeout_s=600)
                _check(side, srcs[side], m.returncode, args, m.stderr)
                samples[side, jobs].append(m)
                hashes.add(tuple((name, hashlib.sha256((tmp / "out" / name).read_bytes()).hexdigest())
                                 for name in OUTPUTS))
    if len(hashes) != 1:
        raise SystemExit(f"output bytes differ between runs: {sorted(hashes)}")
    tables = {
        metric: {f"jobs{jobs}": {side: _stats([getattr(m, metric) for m in samples[side, jobs]]) for side in SIDES}
                 for jobs in (1, 2)}
        for metric in ("wall_s", "peak_rss_mb")
    }
    return tables, dict(hashes.pop())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against (its src/ is exported)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--reps", type=int, default=3, help="runs of each step, alternating which side goes first")
    args = ap.parse_args(argv)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        # the tree hashes identify the measured src/ across commits that change only other files
        "git": {"change": _git("rev-parse", "HEAD"), "change_src_tree": _git("rev-parse", "HEAD:src"),
                "src_dirty": bool(_git("status", "--porcelain", "src")),
                "base": _git("rev-parse", args.base), "base_src_tree": _git("rev-parse", f"{args.base}:src")},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": _blas_core(),
                "cores": os.cpu_count(), "machine": platform.machine(),
                "threads": {var: os.environ.get(var) for var in THREAD_VARS}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {"base": _export_src(args.base, Path(tmp)), "change": ROOT / "src"}
        report["kernels"] = bench_kernels(srcs, args.reps, Path(tmp))
        tables, sha256 = bench_cli(srcs, args.reps, Path(tmp))
        scale, scale_sha256 = bench_cli(srcs, args.reps, Path(tmp), SCALE_RUN)
        report.update(tables, outputs_sha256=sha256, scale={**scale, "outputs_sha256": scale_sha256})
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
