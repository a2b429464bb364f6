"""Write a BENCH_*.json: hot-kernel times and the bundled benchmark's wall time, before and after a change.

    python bench/bench.py --base REV --out BENCH_N.json [--reps 3]

Exports ``src/`` of git revision REV ("base") and runs every step once
from it and once from ``src/`` of this checkout ("change") per rep,
alternating which side runs first:

- probes: ``perfbench/child.py probes 0``, the median time of one call of
  each hot kernel (knn_scores, mp, one Adam step, fit_cart,
  smote_balance) on fixed seeded inputs;
- load_csv_s: one ``load_dataset`` call, timed inside the child, on a
  20,000-row CSV written once from ``SyntheticSpec`` by the change side;
- wall_s: the default bundled `churnopt benchmark` (no config: 12
  datasets x 5 incentive values x 8 methods) with --jobs 1 and --jobs 2.

Every benchmark run's benchmark_cells.csv and summary.json sha256 is
recorded; the script fails if they differ between runs, sides or job
counts, and stops naming the side when a run exits non-zero. The BLAS
thread variables the runs inherit are recorded under env.threads (null
when unset).
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
OUTPUTS = ("benchmark_cells.csv", "summary.json")
SIDES = ("base", "change")
CSV_ROWS = 20_000
WRITE_CSV = ("import sys; from churnopt.data import save_dataset; "
             "from churnopt.experiments import SyntheticSpec, generate_synthetic; "
             "save_dataset(generate_synthetic(SyntheticSpec('csv', int(sys.argv[2]), 10))[0], sys.argv[1])")
TIME_LOAD = ("import sys, time; from churnopt.data import load_dataset; "
             "start = time.perf_counter(); load_dataset(sys.argv[1]); print(time.perf_counter() - start)")
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


def _order(rep: int) -> tuple[str, str]:
    return SIDES if rep % 2 == 0 else SIDES[::-1]


def _child(side: str, src: Path, *args: str) -> str:
    """Run python with args and src on PYTHONPATH; its stdout. A failure stops the script naming the side."""
    done = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{side} side ({src}) exited {done.returncode}: {' '.join(args)}\n{done.stderr[-2000:]}")
    return done.stdout


def _stats(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(s, 4) for s in samples]}


def bench_probes(srcs: dict[str, Path], reps: int) -> dict:
    """{probe: {side: stats}} over reps runs of ``child.py probes 0`` per side."""
    samples: dict[str, dict[str, list[float]]] = {}
    for rep in range(reps):
        for side in _order(rep):
            for probe, value in json.loads(_child(side, srcs[side], str(CHILD), "probes", "0")).items():
                samples.setdefault(probe, {s: [] for s in SIDES})[side].append(value)
    return {probe: {side: _stats(runs) for side, runs in by_side.items()} for probe, by_side in sorted(samples.items())}


def bench_csv(srcs: dict[str, Path], reps: int, tmp: Path) -> dict:
    """{side: stats} of reps ``load_dataset`` times per side on one CSV_ROWS-row file."""
    path = tmp / "load.csv"
    _child("change", srcs["change"], "-c", WRITE_CSV, str(path), str(CSV_ROWS))
    samples = {side: [] for side in SIDES}
    for rep in range(reps):
        for side in _order(rep):
            samples[side].append(float(_child(side, srcs[side], "-c", TIME_LOAD, str(path))))
    return {side: _stats(runs) for side, runs in samples.items()}


def bench_cli(srcs: dict[str, Path], reps: int) -> tuple[dict, dict]:
    walls = {(side, jobs): [] for side in SIDES for jobs in (1, 2)}
    hashes = set()
    with tempfile.TemporaryDirectory() as out:
        for rep in range(reps):
            for jobs in (1, 2):
                for side in _order(rep):
                    start = time.perf_counter()
                    _child(side, srcs[side], "-m", "churnopt.cli", "benchmark", "--out", out, "--jobs", str(jobs))
                    walls[side, jobs].append(time.perf_counter() - start)
                    hashes.add(tuple((name, hashlib.sha256((Path(out) / name).read_bytes()).hexdigest())
                                     for name in OUTPUTS))
    if len(hashes) != 1:
        raise SystemExit(f"output bytes differ between runs: {sorted(hashes)}")
    table = {f"jobs{jobs}": {side: _stats(walls[side, jobs]) for side in SIDES} for jobs in (1, 2)}
    return table, dict(hashes.pop())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against (its src/ is exported)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--reps", type=int, default=3,
                    help="alternating runs per side of the probes, the CSV load and each job count")
    args = ap.parse_args(argv)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        # the tree hashes identify the measured src/ across commits that change only other files
        "git": {"change": _git("rev-parse", "HEAD"), "change_src_tree": _git("rev-parse", "HEAD:src"),
                "src_dirty": bool(_git("status", "--porcelain", "src")),
                "base": _git("rev-parse", args.base), "base_src_tree": _git("rev-parse", f"{args.base}:src")},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}", "cores": os.cpu_count(),
                "machine": platform.machine(), "threads": {var: os.environ.get(var) for var in THREAD_VARS}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {"base": _export_src(args.base, Path(tmp)), "change": ROOT / "src"}
        report["probes"] = bench_probes(srcs, args.reps)
        report["load_csv_s"] = bench_csv(srcs, args.reps, Path(tmp))
        report["wall_s"], report["outputs_sha256"] = bench_cli(srcs, args.reps)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
