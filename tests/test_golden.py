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
The same command also writes the three sensitivity tables
(`profit_vs_d.csv`, `gap_vs_d.csv`, `eta_profit_vs_d.csv`) into the
directory. They are not checked in (`.gitignore` lists them): those of
`golden/` are pinned by their sha256 below, and a table byte that moves
is declared with the new hash.
"""

import hashlib
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


def test_small_run_sweep_reproduces_pinned_hashes(tmp_path):
    config = str(DATA / "golden" / "run.json")
    assert main(["benchmark", "--config", config, "--out", str(tmp_path), "--jobs", "1"]) == 0
    expected = {
        "eta_profit_vs_d.csv": "0f99aa862781565e9656ab0d9badee21ee5226792f437d6fd39e439a250a083c",
        "gap_vs_d.csv": "9db7d11f8215383f14cad7f16c65f1fb2c5abbc99f302c748e5bdf1777b2f6b4",
        "profit_vs_d.csv": "a6496284404ec216e6b3da27560498e3df271a2a5eb81a7c2a32011ffd30a2fd",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
