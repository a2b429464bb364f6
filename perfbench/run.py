"""churnopt benchmark: end-to-end and per-layer metrics of `churnopt benchmark`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the churnopt source is taken from ``src/`` next to this
directory and nothing under it is edited. Load is one client in a closed
loop: the next CLI run starts only after the previous one exits, and a
run uses at most its workload's ``--jobs`` processes. Every CLI run
inherits the caller's environment; no BLAS thread variable is set.

--trace 0 reports the end-to-end metrics:
  wall_s         median wall time of the CLI command, process start to exit,
                 over at least three runs
  setup_s        median wall time of a fresh interpreter that imports
                 churnopt and builds the workload's datasets through the
                 CLI's own path, running no cell; two before each timed run
  peak_rss_mb    median over runs of the process tree's peak resident memory
                 (summed over its processes at one instant, polled every 10 ms)
  cells_ok_frac  ok cells over attempted cells
  mean_gap       mean normalized gap to the oracle profit over ok cells
  regret_net_gap the same over regret_net cells only

--trace 1 runs the CLI untraced and then serially under tracer.py, and
reports per-layer metrics computed from the span file (see layers.py),
the kernel probes of child.py, pool efficiency and tracing overhead.

Every CLI run is checked: exit code 0, one `ok` row per (dataset, d,
method) cell, every summary.json per-d block complete, and the same
sha256 of benchmark_cells.csv and summary.json on every run of the
invocation, serial or pooled, traced or not. The last stdout line is the
JSON result; the line before it is a JSON report with the environment
stamp, the output sha256 and the raw samples.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import measure
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS_PER_RUN = 2
MIN_TIMED_RUNS = 3
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, seconds: float, work: Path):
        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        # Room for a timed loop whose minimum of runs takes longer than
        # `seconds`, plus set-up, probes and slack. At 25 s this is 150 s.
        self.deadline_s = 50.0 + 4.0 * seconds
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.n_datasets = self.runs = 0
        self.attempted = self.failed = 0
        self.samples: dict = {}
        self.problems: list[str] = []
        self.shas: set[str] = set()
        self.cells: list[dict] = []

    def _timeout(self) -> float:
        left = self.deadline_s - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError(f"no time left within {self.deadline_s:.0f} s")
        return left

    def prepare(self) -> dict:
        """Write the seed's config (and inputs); return the versions it saw."""
        _, versions = self.child("prepare", self.w.name, str(self.seed), str(self.work))
        datasets = json.loads((self.work / "config.json").read_text(encoding="utf-8"))["datasets"]
        self.n_datasets = len(datasets["synthetic"] if isinstance(datasets, dict) else datasets)
        return versions

    def child(self, *args: str) -> tuple[measure.Measured, dict]:
        cwd = self.work / "child"
        cwd.mkdir(exist_ok=True)
        m = measure.run([sys.executable, str(HERE / "child.py"), *args], env=self.env, cwd=cwd, timeout_s=self._timeout())
        if m.returncode != 0:
            raise BenchError(f"child.py {args[0]} exited {m.returncode}: {m.stderr.strip()[-2000:]}")
        try:
            result = json.loads(m.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"child.py {args[0]} printed no JSON result") from None
        if "churnopt" in result and not Path(result["churnopt"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"churnopt imported from {result['churnopt']}, not from {SRC}")
        return m, result

    def cli(self, jobs: int, traced: bool = False) -> tuple[measure.Measured, Path | None]:
        """One `churnopt benchmark` run, checked against the workload's grid."""
        self.runs += 1
        cwd = self.work / f"run{self.runs}"
        cwd.mkdir()
        args = ["benchmark", "--config", str(self.work / "config.json"), "--out", str(cwd / "out"), "--jobs", str(jobs)]
        spans = cwd / "spans.jsonl"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "churnopt.cli", *args]
        m = measure.run(cmd, env=self.env, cwd=cwd, timeout_s=self._timeout())
        self._check(m, cwd / "out", f"run{self.runs} (jobs={jobs}{', traced' if traced else ''})")
        return m, spans if traced else None

    def _check(self, m: measure.Measured, out: Path, tag: str) -> None:
        expected = self.n_datasets * len(wl.D_GRID) * len(self.w.methods)
        self.attempted += expected
        problems = []
        if m.returncode != 0:
            problems.append(f"exit code {m.returncode}: {m.stderr.strip()[-500:]}")
        try:
            cells_bytes = (out / "benchmark_cells.csv").read_bytes()
            summary_bytes = (out / "summary.json").read_bytes()
        except OSError as exc:
            self.failed += expected
            self.problems.append(f"{tag}: missing output: {exc}")
            return
        rows = list(csv.DictReader(cells_bytes.decode().splitlines()))
        ok = [r for r in rows if r["status"] == "ok"]
        self.failed += expected - len(ok)
        keys = {(r["dataset"], r["d_label"], r["method"]) for r in ok}
        if len(rows) != expected or len(keys) != expected:
            problems.append(f"{len(rows)} cell rows, {len(keys)} distinct ok cells, expected {expected}")
        if {r["method"] for r in rows} != set(self.w.methods):
            problems.append(f"methods {sorted({r['method'] for r in rows})}")
        per_d = json.loads(summary_bytes).get("per_d", {})
        if set(per_d) != set(wl.D_GRID):
            problems.append(f"summary per_d keys {sorted(per_d)}")
        for d_label, block in per_d.items():
            complete = all(set(block.get(k, {})) == set(self.w.methods) for k in ("avg_ranks", "avg_profits"))
            if "note" in block or not complete or "holm" not in block or "friedman" not in block:
                problems.append(f"summary per_d[{d_label}] incomplete")
        sha = f"cells={hashlib.sha256(cells_bytes).hexdigest()} summary={hashlib.sha256(summary_bytes).hexdigest()}"
        self.shas.add(sha)
        if len(self.shas) > 1:
            problems.append("outputs differ from an earlier run of this invocation")
        self.problems.extend(f"{tag}: {p}" for p in problems)
        if not self.cells:
            self.cells = ok

    def gaps(self) -> tuple[float, float]:
        """Mean gap over ok cells, all and regret_net only (0 when none: the check has failed)."""
        gaps = [float(r["gap"]) for r in self.cells if r["gap"]]
        regret = [float(r["gap"]) for r in self.cells if r["gap"] and r["method"] == "regret_net"]
        return (statistics.fmean(gaps) if gaps else 0.0), (statistics.fmean(regret) if regret else 0.0)

    def timed_loop(self, step, minimum: int) -> list:
        """Call step() back to back: at least `minimum` times, then while another call fits in the run's seconds."""
        results, start = [], time.perf_counter()
        while True:
            results.append(step())
            elapsed = time.perf_counter() - start
            if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > self.seconds:
                return results

    def end_to_end(self) -> dict:
        setup: list[float] = []

        def step():
            # Set-up samples are spread over the whole measurement, as the
            # timed runs are, so that a slow spell of the host weighs on
            # both alike.
            for _ in range(SETUP_REPS_PER_RUN):
                setup.append(self.child("setup", str(self.work / "config.json"))[0].wall_s)
            return self.cli(self.w.jobs)[0]

        timed = self.timed_loop(step, MIN_TIMED_RUNS)
        mean_gap, regret_gap = self.gaps()
        self.samples = {"setup_s": setup, "wall_s": [m.wall_s for m in timed], "peak_rss_mb": [m.peak_rss_mb for m in timed]}
        return {
            "wall_s": (statistics.median(m.wall_s for m in timed), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(m.peak_rss_mb for m in timed), "MB"),
            "cells_ok_frac": ((self.attempted - self.failed) / self.attempted, "frac"),
            "mean_gap": (mean_gap, "gap"),
            "regret_net_gap": (regret_gap, "gap"),
        }

    def per_layer(self) -> dict:
        _, probes = self.child("probes", str(self.seed))

        def step():
            plain = self.cli(self.w.jobs)[0]
            serial = plain if self.w.jobs == 1 else self.cli(1)[0]
            traced, spans_path = self.cli(1, traced=True)
            if not spans_path.is_file():
                raise BenchError(f"the traced run wrote no spans (exit code {traced.returncode})")
            spans = layers.load(spans_path)
            return {
                "layers": layers.summarize(spans, wl.METHODS),
                "evaluate_cell_ms_by_layer": layers.evaluate_cell_breakdown(spans),
                "pool_efficiency": layers.cell_time_ms(spans) / 1e3 / (self.w.jobs * plain.wall_s),
                "overhead_frac": traced.wall_s / serial.wall_s - 1,
            }

        reps = self.timed_loop(step, 1)
        out = {name: (statistics.median(r["layers"][name][0] for r in reps), unit) for name, (_, unit) in reps[0]["layers"].items()}
        out["experiments.pool_efficiency"] = (statistics.median(r["pool_efficiency"] for r in reps), "ratio")
        out["trace.overhead_frac"] = (statistics.median(r["overhead_frac"] for r in reps), "ratio")
        out.update({name: (value, "us" if name.endswith("_us") else "ms") for name, value in probes.items()})
        self.samples = {
            "traced_reps": len(reps),
            "evaluate_cell_ms_by_layer": [r["evaluate_cell_ms_by_layer"] for r in reps],
        }
        return out


def _stamp() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        git_sha = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "none"
    src = hashlib.sha256()
    for path in sorted((SRC / "churnopt").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "blas_env": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "churnopt" / "cli.py").is_file():
        print(f"error: no churnopt source at {SRC / 'churnopt'}", file=sys.stderr)
        return 2
    stamp = _stamp()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(wl.WORKLOADS[args.workload], args.seed, args.seconds, work)
    try:
        versions = bench.prepare()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for problem in bench.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cli_runs": bench.runs,
        "output_sha256": sorted(bench.shas),
        "problems": bench.problems,
        "samples": bench.samples,
        **versions,
        **stamp,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
