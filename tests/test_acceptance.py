"""Acceptance suite: every exit criterion at its stated tolerance.

Each test covers one numbered criterion; the conftest summary hook prints
one PASS/FAIL line per criterion at the end of the run.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import oracles
import pytest

from churnopt import experiments as ex
from churnopt.campaign import (
    CampaignParams,
    break_even_clv,
    campaign_cost,
    midpoint,
    optimal_total_profit,
    prescribe,
    regret,
    smooth_regret,
    smooth_regret_grad,
    total_profit,
)
from churnopt.data import standardize
from churnopt.metrics import mp, msp
from churnopt.models import StackSlice, TrainConfig, forward_batch, init_mlp, train_stack
from churnopt.smote import SmoteConfig, smote_balance
from churnopt.stats import friedman_iman_davenport, holm, nemenyi_z

P = CampaignParams(f=1.36, d=4.25, gamma=0.3, slope=10.0)

# published average ranks of the 12-method reference comparison, in
# ascending order; the top entry is the rank of the compared-against method
PUBLISHED_RANKS = [
    2.7917, 4.4167, 5.0833, 5.4583, 5.5000, 6.7500,
    6.7917, 7.7083, 7.8750, 8.1250, 8.3333, 9.1667,
]
PUBLISHED_OUTCOME = [False, False, False, False, True, True, True, True, True, True, True]


def test_criterion_1_statistical_reproduction():
    start = time.perf_counter()

    result = friedman_iman_davenport(PUBLISHED_RANKS, 12)
    assert result["f_stat"] == pytest.approx(4.1018, abs=0.06)
    assert result["p_value"] < 0.0001

    _, p_second = nemenyi_z(PUBLISHED_RANKS[0], PUBLISHED_RANKS[1], 12, 12)
    assert p_second == pytest.approx(0.2696, abs=0.003)
    _, p_third = nemenyi_z(PUBLISHED_RANKS[0], PUBLISHED_RANKS[2], 12, 12)
    assert p_third == pytest.approx(0.1195, abs=0.003)

    p_values = [nemenyi_z(PUBLISHED_RANKS[0], r, 12, 12)[1] for r in PUBLISHED_RANKS[1:]]
    judged = holm(p_values, alpha=0.05)
    assert [reject for _, reject in judged] == PUBLISHED_OUTCOME

    assert time.perf_counter() - start < 1.0


def test_criterion_2_decision_core_analytics():
    assert midpoint(P, 85.0) == pytest.approx(0.80298, abs=1e-4)
    assert regret(0, 0.9, P, 85.0) == pytest.approx(22.865, abs=1e-6)  # missed churner
    assert regret(1, 0.5, P, 85.0) == pytest.approx(5.61, abs=1e-9)  # wrong target
    assert break_even_clv(P) == pytest.approx(8.7833, abs=1e-4)


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()

    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(100):
        params = CampaignParams(
            f=rng.uniform(0.5, 3),
            d=rng.uniform(2, 10),
            gamma=rng.uniform(0.1, 0.9),
            slope=rng.uniform(1, 20),
        )
        clv = rng.uniform(20, 200)
        y = int(rng.integers(0, 2))
        y_hat = rng.uniform(0, 1)
        analytic = smooth_regret_grad(y, y_hat, params, clv)
        numeric = (
            smooth_regret(y, y_hat + h, params, clv) - smooth_regret(y, y_hat - h, params, clv)
        ) / (2 * h)
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric)) < 1e-5

    for trial in range(20):
        k = int(rng.integers(2, 6))
        hidden = int(rng.integers(1, 5))
        net = init_mlp(k, hidden, seed=trial)
        n = int(rng.integers(3, 12))
        X = rng.normal(size=(n, k))
        y = rng.integers(0, 2, n)
        clv = rng.uniform(10, 300, n)
        loss = "smooth-regret" if trial % 2 == 0 else "cross-entropy"
        assert oracles.gradient_check(net, loss, X, y, clv, P) < 1e-5

    assert time.perf_counter() - start < 10.0


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(41)

    # mp against exhaustive threshold enumeration
    for _ in range(100):
        n = int(rng.integers(1, 51))
        scores = rng.uniform(0, 1, n).round(2)
        labels = rng.integers(0, 2, n)
        clv_avg = float(rng.uniform(5, 300))
        gain = P.gamma * (clv_avg - P.d) - P.f
        cost = P.d + P.f
        best = 0.0  # empty campaign
        for t in np.unique(scores):
            targeted = scores <= t
            profit = (
                gain * np.sum(targeted & (labels == 0)) - cost * np.sum(targeted & (labels == 1))
            ) / n
            best = max(best, profit)
        value, _ = mp(scores, labels, P, clv_avg)
        assert value == pytest.approx(best, abs=1e-12)

    # optimal decisions against enumeration of all 2^n decision vectors
    for _ in range(100):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 2, n)
        clvs = rng.uniform(2, 300, n)
        per_customer = np.asarray(campaign_cost(1.0, labels, P, clvs))
        all_z = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        brute_best = float(np.max(-(all_z @ per_customer)))
        assert optimal_total_profit(labels, P, clvs) == pytest.approx(brute_best, rel=1e-12, abs=1e-12)

    assert time.perf_counter() - start < 30.0


def test_criterion_5_msp_properties():
    rng = np.random.default_rng(51)

    # q = 1 is exactly MP
    for _ in range(100):
        n = int(rng.integers(2, 40))
        scores = rng.uniform(0, 1, n)
        labels = rng.integers(0, 2, n)
        clvs = rng.uniform(5, 300, n)
        result = msp(scores, labels, clvs, 1, P)
        value, t = mp(scores, labels, P, float(clvs.mean()))
        assert result.msp == value
        assert result.thresholds[0] == t

    # equal-size segments dominate the single shared threshold on
    # instances with CLV tied to churn propensity (high-CLV churners)
    for _ in range(100):
        q = int(rng.integers(2, 5))
        n = q * int(rng.integers(8, 21))
        labels = rng.integers(0, 2, n)
        scores = np.clip(0.35 * labels + 0.5 * rng.uniform(0, 1, n), 0, 1)
        clvs = 40 + 220 * (1 - scores) + rng.uniform(-10, 10, n)
        result = msp(scores, labels, clvs, q, P)
        mp_value, _ = mp(scores, labels, P, float(clvs.mean()))
        assert result.msp >= mp_value - 1e-9


def test_criterion_6_end_to_end_learning():
    start = time.perf_counter()

    # strongly separable features, heterogeneous CLVs: the regret-trained
    # network must recover at least 95% of the attainable profit
    spec = ex.SyntheticSpec(
        name="separable", n_train=600, n_test=250, n_features=8, churn_rate=0.25,
        clv_mean=85.0, clv_sigma=0.8, signal=6.0, clv_churn_corr=0.25, seed=0,
    )
    train_raw, test_raw = ex.generate_synthetic(spec)
    tr, te = standardize(train_raw, test_raw)
    [(models, _)] = train_stack(
        tr, [StackSlice(init_mlp(8, 4, seed=0), P, TrainConfig(learning_rate=0.05, epochs=200, seed=0))]
    )
    decisions = prescribe(forward_batch(models[200], te.features), midpoint(P, te.clvs))
    achieved = total_profit(decisions, te.labels, P, te.clvs)
    assert achieved >= 0.95 * optimal_total_profit(te.labels, P, te.clvs)

    # churn-prone customers carry the high CLVs: regret training must beat
    # the same architecture trained with cross-entropy and a 0.5 threshold
    # in at least 8 of 10 seeds
    wins = 0
    for seed in range(10):
        spec = ex.SyntheticSpec(
            name="anti", n_train=600, n_test=250, n_features=8, churn_rate=0.3,
            clv_mean=85.0, clv_sigma=1.0, signal=1.0, clv_churn_corr=0.7, seed=100 + seed,
        )
        train_raw, test_raw = ex.generate_synthetic(spec)
        tr, te = standardize(train_raw, test_raw)
        [(regret_model, _)] = train_stack(tr, [StackSlice(
            init_mlp(8, 4, seed=seed), P,
            TrainConfig(learning_rate=0.05, epochs=120, loss="smooth-regret", seed=seed),
        )])
        [(ce, _)] = train_stack(tr, [StackSlice(
            init_mlp(8, 4, seed=seed), P,
            TrainConfig(learning_rate=0.05, epochs=120, loss="cross-entropy", seed=seed),
        )])
        regret_model, ce = regret_model[120], ce[120]
        profit_regret = total_profit(
            prescribe(forward_batch(regret_model, te.features), midpoint(P, te.clvs)),
            te.labels, P, te.clvs,
        )
        profit_ce = total_profit(
            (forward_batch(ce, te.features) <= 0.5).astype(int), te.labels, P, te.clvs
        )
        wins += profit_regret > profit_ce
    assert wins >= 8

    assert time.perf_counter() - start < 300.0


def test_criterion_7_monotone_sensitivity(tmp_path):
    # optimal profit never increases with the incentive, on every bundled
    # synthetic dataset across the d grid
    for spec in ex.bundled_specs(0):
        train_ds, test_ds = ex.generate_synthetic(spec)
        clv_mean = float(train_ds.clvs.mean())
        profits = [
            optimal_total_profit(
                test_ds.labels, replace(P, d=ex.resolve_d(entry, clv_mean)), test_ds.clvs
            )
            for entry in ex.DEFAULT_D_GRID
        ]
        assert all(a >= b - 1e-9 for a, b in zip(profits, profits[1:])), spec.name

    # profit-vs-d and gap-vs-d tables are byte-identical across reruns
    # with the same master seed
    datasets = []
    for spec in ex.bundled_specs(0)[:2]:
        train_ds, test_ds = ex.generate_synthetic(spec)
        datasets.append((spec.name, train_ds, test_ds))
    cfg = ex.RunConfig(
        methods=("regret_net", "oracle"), learning_rate=0.05, epochs=20, seed=7
    )
    paths = {}
    for run in ("first", "second"):
        tables = ex.sensitivity_sweep(ex.run_benchmark(datasets, cfg), cfg)
        paths[run] = {
            stem: ex.write_table_csv(rows, tmp_path / f"{stem}_{run}.csv")
            for stem, rows in tables.items()
            if stem in ("profit_vs_d", "gap_vs_d")
        }
    for stem in ("profit_vs_d", "gap_vs_d"):
        assert paths["first"][stem].read_bytes() == paths["second"][stem].read_bytes()


def test_criterion_8_smote_properties():
    rng = np.random.default_rng(81)
    from churnopt.data import Dataset

    k = 5
    for trial in range(10):
        n_min, n_maj = 12, 40
        X = np.vstack(
            [rng.normal(0, 1, (n_min, 4)), rng.normal(3, 1, (n_maj, 4))]
        )
        ds = Dataset(
            name=f"s{trial}",
            schema=("f1", "f2", "f3", "f4"),
            features=X,
            labels=np.r_[np.zeros(n_min, int), np.ones(n_maj, int)],
            clvs=rng.uniform(5, 200, n_min + n_maj),
        )
        out = smote_balance(ds, SmoteConfig(k_neighbors=k, ratio=1.0, seed=trial))

        # class ratio within one record of the target
        assert abs(np.sum(out.labels == 0) - 1.0 * np.sum(out.labels == 1)) <= 1.0

        # deterministic per seed
        again = smote_balance(ds, SmoteConfig(k_neighbors=k, ratio=1.0, seed=trial))
        assert np.array_equal(out.features, again.features)
        assert np.array_equal(out.clvs, again.clvs)

        # every synthetic lies on a segment from a minority point to one
        # of its k nearest minority neighbors
        Xm = ds.features[ds.labels == 0]
        dist = np.sqrt(((Xm[:, None, :] - Xm[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]
        for x in out.features[len(ds) :]:
            on_segment = False
            for a in range(n_min):
                for b in neighbors[a]:
                    seg = Xm[b] - Xm[a]
                    u = float((x - Xm[a]) @ seg) / float(seg @ seg)
                    if -1e-9 <= u <= 1 + 1e-9 and np.allclose(x, Xm[a] + u * seg, atol=1e-9):
                        on_segment = True
                        break
                if on_segment:
                    break
            assert on_segment


def test_criterion_9_full_benchmark(tmp_path):
    start = time.perf_counter()

    datasets = []
    for spec in ex.bundled_specs(0):
        train_ds, test_ds = ex.generate_synthetic(spec)
        datasets.append((spec.name, train_ds, test_ds))
    cfg = ex.RunConfig()  # 12 datasets x 5 d values x 8 methods
    report = ex.run_benchmark(datasets, cfg, jobs=1)

    assert len(report.cells) == 12 * 5 * 8
    assert report.failed == ()
    experiments = {(c.dataset, c.d_label) for c in report.cells}
    assert len(experiments) == 60

    csv_path = report.to_csv(tmp_path / "benchmark_cells.csv")
    names = [name for name, _, _ in datasets]
    summary = ex.benchmark_summary(report, cfg, names)
    json_path = tmp_path / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True))

    # the reproducibility contract: the bytes of the default `churnopt
    # benchmark` run's benchmark_cells.csv and summary.json
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "b82c0025ed1d8501963b3a55dc8027b1cf965bb9e04b4c4ec2f2d36b78716b08"
    )
    assert hashlib.sha256((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()).hexdigest() == (
        "5ba23c0b1c4d9268597bb04df44d5c36ebcc73d92a8fd57840c92dda86f49ed2"
    )
    # and of the three sensitivity tables the run writes from the same cells
    tables = {
        "profit_vs_d": "a009fe230608dedcfee4f0bc714639cc3c4bb057621bb226a1436f756ce5d7f8",
        "gap_vs_d": "c4134517e966ba6fe30472f84f35446771a0c6f159885aa4f9f42f0080862197",
        "eta_profit_vs_d": "94f061f9cfadbcfcaff9ff780ef07889e2a3bf64e626c8975326ed559cef6b2c",
    }
    for stem, rows in ex.sensitivity_sweep(report, cfg).items():
        path = ex.write_table_csv(rows, tmp_path / f"{stem}.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == tables.pop(stem), stem
    assert tables == {}

    lines = csv_path.read_text().splitlines()
    assert len(lines) == 481  # header + one row per cell
    assert all(line.endswith(",ok") for line in lines[1:])
    loaded = json.loads(json_path.read_text())
    for entry in cfg.d_grid:
        block = loaded["per_d"][entry]
        assert set(block["avg_ranks"]) == set(cfg.methods)
        assert "friedman" in block and "holm" in block

    assert time.perf_counter() - start < 600.0
