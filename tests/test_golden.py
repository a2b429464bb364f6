"""Golden bytes: a small fixed run must reproduce its checked-in outputs.

The run covers every method, an absolute and a CLV-relative d entry, the
Monte Carlo CV path and MSP thresholds on two synthetic datasets. The
expected files were written once with

    churnopt benchmark --config tests/data/golden/run.json \
        --out tests/data/golden --jobs 1

and any byte that moves is an output change that must be declared.
"""

from pathlib import Path

import pytest

from churnopt.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_small_run_reproduces_golden_bytes(tmp_path, jobs):
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(GOLDEN / "run.json"), "--out", str(out), "--jobs", jobs]) == 0
    for name in ("benchmark_cells.csv", "summary.json"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
