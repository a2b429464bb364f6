"""Golden bytes: small fixed runs must reproduce their checked-in outputs.

`golden/` covers every method, an absolute and a CLV-relative d entry,
the Monte Carlo CV path and MSP thresholds on two synthetic datasets.
`golden_cv/` runs regret_net with mini-batches and a CV grid of two
learning rates x epochs {2, 5}, whose picks include both epoch counts,
so it pins the models tuned on shared epoch prefixes. The expected files
were written once with

    churnopt benchmark --config tests/data/<dir>/run.json \
        --out tests/data/<dir> --jobs 1

and any byte that moves is an output change that must be declared.
"""

from pathlib import Path

import pytest

from churnopt.cli import main

DATA = Path(__file__).parent / "data"


def _assert_reproduces(golden: Path, out: Path, jobs: str) -> None:
    assert main(["benchmark", "--config", str(golden / "run.json"), "--out", str(out), "--jobs", jobs]) == 0
    for name in ("benchmark_cells.csv", "summary.json"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_small_run_reproduces_golden_bytes(tmp_path, jobs):
    _assert_reproduces(DATA / "golden", tmp_path / "out", jobs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_multi_epoch_cv_run_reproduces_golden_bytes(tmp_path, jobs):
    _assert_reproduces(DATA / "golden_cv", tmp_path / "out", jobs)
