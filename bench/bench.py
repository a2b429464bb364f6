"""Write a BENCH_*.json: hot-kernel times and the bundled benchmark's wall time, before and after a change.

    python bench/bench.py --base REV --out BENCH_N.json [--reps 3]

Exports ``src/`` of git revision REV ("base") and runs every step once
from it and once from ``src/`` of this checkout ("change") per rep,
alternating which side runs first:

- probes: ``perfbench/child.py probes 0``, the median time of one call of
  each hot kernel (knn_scores, mp, one Adam step, fit_cart,
  smote_balance) on fixed seeded inputs;
- load_csv_s: per rep, one child loads both trees' ``churnopt`` under
  two names and prints each side's fastest of LOAD_CALLS warm
  ``load_dataset`` calls on a CSV_ROWS-row CSV, taking turns call by call;
- wall_s and peak_rss_mb: the default bundled `churnopt benchmark` (no
  config: 12 datasets x 5 incentive values x 8 methods) with --jobs 1
  and --jobs 2, run through ``perfbench/measure.py``: wall time from
  process start to exit, and the largest resident memory summed over the
  run's process tree at one instant (sampled every 10 ms).

The sha256 of every file a benchmark run writes (benchmark_cells.csv,
summary.json and the three *_vs_d.csv tables) is recorded; the script
fails if any differs between runs, sides or job counts, and stops naming
the side when a child exits non-zero. env records the BLAS thread
variables the runs inherit (null when unset) and the kernel set numpy's
bundled OpenBLAS chose for this CPU (blas_core; null without one).
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import measure  # noqa: E402  perfbench's process-tree sampler

CHILD = ROOT / "perfbench" / "child.py"
OUTPUTS = ("benchmark_cells.csv", "summary.json", "profit_vs_d.csv", "gap_vs_d.csv", "eta_profit_vs_d.csv")
SIDES = ("base", "change")
CSV_ROWS = 2_000  # the size of the largest file perfbench's regret_tune_csv reads
WRITE_CSV = ("import sys; from churnopt import SyntheticSpec, generate_synthetic, save_dataset; "
             "save_dataset(generate_synthetic(SyntheticSpec('csv', int(sys.argv[2]), 10))[0], sys.argv[1])")
LOAD_CALLS = 40
# argv: the CSV, then side and package-directory pairs; a module goes in sys.modules before it runs, for dataclass
TIME_LOAD = f"""\
import json, sys, time
from importlib.util import module_from_spec, spec_from_file_location
loads, times, sides = {{}}, {{}}, sys.argv[2::2]
for side, pkg in zip(sides, sys.argv[3::2]):
    spec = spec_from_file_location(f"churnopt_{{side}}", f"{{pkg}}/__init__.py", submodule_search_locations=[pkg])
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    loads[side], times[side] = module.load_dataset, []
for _ in range({LOAD_CALLS} + 1):  # the first round warms each side
    for side in sides:
        start = time.perf_counter()
        loads[side](sys.argv[1])
        times[side].append(time.perf_counter() - start)
    sides.reverse()
print(json.dumps({{side: min(t[1:]) for side, t in times.items()}}))
"""
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


def _order(rep: int) -> tuple[str, str]:
    return SIDES if rep % 2 == 0 else SIDES[::-1]


def _child(side: str, src: Path | str, *args: str) -> str:
    """Run python with args and src on PYTHONPATH; its stdout. A failure stops the script naming the side."""
    done = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    _check(side, src, done.returncode, args, done.stderr)
    return done.stdout


def _check(side: str, src: Path, returncode: int, args, stderr: str) -> None:
    if returncode != 0:
        raise SystemExit(f"{side} side ({src}) exited {returncode}: {' '.join(args)}\n{stderr[-2000:]}")


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
    """{side: stats of each rep's fastest call} on one CSV_ROWS-row file; one child per rep times both sides."""
    path = tmp / "load.csv"
    _child("change", srcs["change"], "-c", WRITE_CSV, str(path), str(CSV_ROWS))
    fastest = []
    for rep in range(reps):
        trees = [arg for side in _order(rep) for arg in (side, str(srcs[side] / "churnopt"))]
        both = os.pathsep.join(str(srcs[side]) for side in _order(rep))  # read only in a failure's message
        fastest.append(json.loads(_child(" and ".join(_order(rep)), both, "-c", TIME_LOAD, str(path), *trees)))
    return {side: _stats([rep[side] for rep in fastest]) for side in SIDES}


def bench_cli(srcs: dict[str, Path], reps: int, tmp: Path) -> tuple[dict, dict]:
    """{metric: {f"jobs{n}": {side: stats}}} for wall_s and peak_rss_mb of the bundled run, and its sha256s."""
    samples = {(side, jobs): [] for side in SIDES for jobs in (1, 2)}
    hashes = set()
    for rep in range(reps):
        for jobs in (1, 2):
            for side in _order(rep):
                args = ["-m", "churnopt.cli", "benchmark", "--out", "out", "--jobs", str(jobs)]
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
        report["probes"] = bench_probes(srcs, args.reps)
        report["load_csv_s"] = bench_csv(srcs, args.reps, Path(tmp))
        tables, sha256 = bench_cli(srcs, args.reps, Path(tmp))
        report.update(tables, outputs_sha256=sha256)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
