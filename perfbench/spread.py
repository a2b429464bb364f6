"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 4 5

Each run measures BENCHMARK.json's run_seconds with --trace 0. For every
end-to-end metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, the figure
BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        else:
            spread = "-"
        print(f"{name:<40} median {median:>12.6g}  spread {spread}  values {[round(v, 4) for v in vals]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
