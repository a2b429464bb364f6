"""The benchmark harness's steps still run against the package.

perfbench/child.py calls package names directly (bundled_specs,
generate_synthetic, save_dataset, cli._run_config, cli._build_datasets,
adam_step, fit_cart, knn_scores, mp, smote_balance); this runs each step
as the harness does, so a rename or deletion there fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _child(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_prepare_setup_and_probes_run(tmp_path):
    _child("prepare", "grid_serial", "7", str(tmp_path))
    assert _child("setup", str(tmp_path / "config.json"))["datasets"] == 3
    probes = _child("probes", "7")
    assert sorted(probes) == [
        "probe.adam_step_us", "probe.fit_cart_ms", "probe.knn_scores_ms", "probe.mp_ms", "probe.smote_balance_ms",
    ]
    assert all(value > 0 for value in probes.values())
