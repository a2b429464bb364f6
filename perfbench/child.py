"""Benchmark steps that import churnopt, each run in a fresh interpreter.

    python3 child.py prepare WORKLOAD SEED DIR   write DIR/config.json (and CSV inputs)
    python3 child.py setup CONFIG                build the config's datasets as the CLI does
    python3 child.py probes SEED                 time fixed-size kernels

Each prints one JSON object on stdout. The caller puts the checkout's
``src/`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import workloads as wl


def prepare(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's run config (and its CSV datasets) for one seed."""
    import numpy as np

    import churnopt
    from churnopt import experiments as ex
    from churnopt.data import save_dataset

    w = wl.WORKLOADS[workload]
    out = Path(out_dir)
    config = {"seed": seed, "methods": list(w.methods), "d_grid": list(wl.D_GRID)}
    if workload == "regret_tune_csv":
        seeds = np.random.SeedSequence([seed, 1]).generate_state(len(wl.CSV_DATASETS))
        entries = []
        for (name, n_train, n_test), s in zip(wl.CSV_DATASETS, seeds):
            spec = ex.SyntheticSpec(name=name, n_train=n_train, n_test=n_test, clv_churn_corr=0.25, seed=int(s))
            for ds, tag in zip(ex.generate_synthetic(spec), ("train", "test")):
                save_dataset(ds, out / f"{name}_{tag}.csv")
            entries.append({"name": name, "train": str(out / f"{name}_train.csv"), "test": str(out / f"{name}_test.csv")})
        config.update(datasets=entries, cv=wl.CSV_CV)
    else:
        specs = [
            asdict(replace(s, n_train=int(s.n_train * wl.GRID_TRAIN_SCALE), n_test=s.n_test * wl.GRID_TEST_SCALE))
            for s in ex.bundled_specs(seed)
            if s.name in wl.GRID_MONTHS
        ]
        config["datasets"] = {"synthetic": specs}
    (out / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "churnopt": churnopt.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(config_path: str) -> dict:
    """Import churnopt and materialize the datasets through the CLI's own path."""
    import churnopt
    from churnopt import cli

    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    cfg = cli._run_config(config)
    datasets = cli._build_datasets(config, cfg)
    return {"churnopt": churnopt.__file__, "datasets": len(datasets)}


def _median_s(fn, budget_s: float = 0.3, min_reps: int = 5) -> float:
    fn()  # warm caches and lazy imports
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(seed: int) -> dict:
    """Median time of one call of each hot kernel on fixed-size seeded inputs."""
    import numpy as np

    from churnopt.campaign import CampaignParams
    from churnopt.data import Dataset
    from churnopt.metrics import mp
    from churnopt.models import AdamState, CartConfig, adam_step, fit_cart, knn_scores
    from churnopt.smote import SmoteConfig, smote_balance

    rng = np.random.default_rng([seed, 2])
    n, k = 1000, 24
    labels = (rng.random(n) >= 0.18).astype(np.int64)
    data = Dataset(
        name="probe",
        schema=tuple(f"f{i}" for i in range(k)),
        features=rng.standard_normal((n, k)) + 0.5 * labels[:, None],
        labels=labels,
        clvs=rng.lognormal(4.2, 0.8, n),
    )
    queries = rng.standard_normal((250, k))
    scores = rng.random(n)
    params = CampaignParams(f=1.36, d=8.5, gamma=0.3)
    hidden = 12
    p = {"w1": rng.standard_normal((hidden, k)), "b1": np.zeros(hidden), "w2": rng.standard_normal(hidden), "b2": np.zeros(())}
    grads = {key: rng.standard_normal(v.shape) for key, v in p.items()}
    state = AdamState.zeros_like(p)
    steps = 100

    def adam_steps():
        nonlocal p
        for _ in range(steps):
            p, _ = adam_step(p, grads, state, 0.01)

    return {
        "probe.knn_scores_ms": 1e3 * _median_s(lambda: knn_scores(data, queries, 5)),
        "probe.mp_ms": 1e3 * _median_s(lambda: mp(scores, labels, params, 85.0)),
        "probe.adam_step_us": 1e6 * _median_s(adam_steps) / steps,
        "probe.fit_cart_ms": 1e3 * _median_s(lambda: fit_cart(data, CartConfig(6, 5))),
        "probe.smote_balance_ms": 1e3 * _median_s(lambda: smote_balance(data, SmoteConfig(5, 1.0, seed))),
    }


def main(argv: list[str]) -> int:
    step, args = argv[0], argv[1:]
    if step == "prepare":
        result = prepare(args[0], int(args[1]), args[2])
    elif step == "setup":
        result = setup(args[0])
    elif step == "probes":
        result = probes(int(args[0]))
    else:
        raise SystemExit(f"unknown step {step!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
