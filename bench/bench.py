"""Write a BENCH_*.json: the bundled benchmark's wall time before and after a change.

    python bench/bench.py --base REV --out BENCH_7.json [--reps 3]

Times the default bundled `churnopt benchmark` (no config: 12 datasets x
5 incentive values x 8 methods) with --jobs 1 and --jobs 2, once from
``src/`` of this checkout ("change") and once from ``src/`` of git
revision REV ("base"), alternating which side runs first. Every run's
benchmark_cells.csv and summary.json sha256 is recorded; the script
fails if they differ between runs, sides or job counts. The BLAS
thread variables the runs inherit are recorded under env.threads (null
when unset).

It then times models.nearest_neighbors against the slow kernel of
tests/oracles.py on the bundled run's own neighbour inputs: for each
dataset, SMOTE's self-excluded search over the standardized minority
rows, and the knn scorer's searches of its SMOTE-balanced training split
from the test and training splits. Both kernels must return the same
indices.
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
OUTPUTS = ("benchmark_cells.csv", "summary.json")
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


def _run_cli(src: Path, jobs: int, out: Path) -> tuple[float, dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "churnopt.cli", "benchmark", "--out", str(out), "--jobs", str(jobs)]
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return wall, {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def _stats(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(s, 4) for s in samples]}


def bench_cli(base_rev: str, reps: int) -> tuple[dict, dict]:
    walls = {(side, jobs): [] for side in ("base", "change") for jobs in (1, 2)}
    hashes = set()
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {"base": _export_src(base_rev, Path(tmp) / "base"), "change": ROOT / "src"}
        for rep in range(reps):
            for jobs in (1, 2):
                for side in ("base", "change") if rep % 2 == 0 else ("change", "base"):
                    wall, sha = _run_cli(srcs[side], jobs, Path(tmp) / "out")
                    walls[side, jobs].append(wall)
                    hashes.add(tuple(sorted(sha.items())))
    if len(hashes) != 1:
        raise SystemExit(f"output bytes differ between runs: {sorted(hashes)}")
    table = {
        f"jobs{jobs}": {side: _stats(walls[side, jobs]) for side in ("base", "change")} for jobs in (1, 2)
    }
    return table, dict(hashes.pop())


def neighbour_inputs() -> list[tuple[str, np.ndarray, np.ndarray, int, bool]]:
    """(kind, ref, queries, k, exclude_self) for every distinct search of the bundled run."""
    from churnopt import cli
    from churnopt import experiments as ex
    from churnopt.smote import SmoteConfig, smote_balance

    cfg = cli._run_config({})
    calls = []
    for name, train, test, scorer, _, seeds, _ in ex._plan(cli._build_datasets({}, cfg), cfg):
        if scorer != "knn":
            continue
        counts = np.bincount(train.labels, minlength=2)
        minority = train.features[train.labels == int(np.argmin(counts))]
        calls.append(("smote", minority, minority, min(cfg.smote_k, len(minority) - 1), True))
        balanced = smote_balance(train, SmoteConfig(cfg.smote_k, cfg.smote_ratio, seeds[0])).features
        k = min(cfg.knn_k, len(balanced))
        calls.append(("knn_test", balanced, test.features, k, False))
        calls.append(("knn_train", balanced, train.features, k, False))
    return calls


def bench_kernel(reps: int) -> dict:
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    from churnopt.models import nearest_neighbors

    calls = neighbour_inputs()
    for _, ref, X, k, exclude_self in calls:
        if not np.array_equal(nearest_neighbors(ref, X, k, exclude_self), oracles.nearest_neighbors(ref, X, k, exclude_self)):
            raise SystemExit("nearest_neighbors differs from the oracle on a bundled input")
    kernels = {"oracle": oracles.nearest_neighbors, "change": nearest_neighbors}
    ms = {(side, kind): [] for side in kernels for kind, *_ in calls}
    for rep in range(reps):
        for side in kernels if rep % 2 == 0 else reversed(kernels):
            totals = dict.fromkeys({kind for kind, *_ in calls}, 0.0)
            for kind, ref, X, k, exclude_self in calls:
                start = time.perf_counter()
                kernels[side](ref, X, k, exclude_self)
                totals[kind] += 1e3 * (time.perf_counter() - start)
            for kind, total in totals.items():
                ms[side, kind].append(total)
    kinds = sorted({kind for kind, *_ in calls})
    return {
        "calls": {kind: sum(c[0] == kind for c in calls) for kind in kinds},
        "ms_per_pass": {
            side: {kind: _stats(ms[side, kind]) for kind in kinds}
            | {"all": _stats([sum(t) for t in zip(*(ms[side, kind] for kind in kinds))])}
            for side in kernels
        },
        "indices_identical": True,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against (its src/ is exported)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--reps", type=int, default=3, help="alternating CLI runs per side and job count")
    ap.add_argument("--kernel-reps", type=int, default=5, help="passes over the neighbour inputs per kernel")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
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
    report["nearest_neighbors"] = bench_kernel(args.kernel_reps)
    report["wall_s"], report["outputs_sha256"] = bench_cli(args.base, args.reps)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
