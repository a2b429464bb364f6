"""Per-layer metrics from the span file a traced run writes.

A span's self time is its duration minus the durations of its direct
children; spans of a serial run nest and never overlap. A layer is the
churnopt module that defines the called function.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

LAYERS = ("experiments", "models", "smote", "metrics", "data", "campaign", "stats", "cli")
_CELL = "experiments._run_cell"
_EVAL = "experiments.evaluate_cell"
_CV = "experiments.monte_carlo_cv"
_WRITES = ("experiments.BenchmarkReport.to_csv", "cli._write_json")


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _times(spans: list[dict]) -> tuple[list[float], list[float]]:
    """Duration and self time of every span, in ms."""
    dur = [1e3 * (s["end"] - s["start"]) for s in spans]
    self_ms = dur[:]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            self_ms[s["parent"]] -= dur[i]
    return dur, self_ms


def _inside(spans: list[dict], name: str) -> list[bool]:
    """Whether each span is a `name` span or nested in one."""
    inside = []
    for s in spans:  # a parent is recorded before its children
        inside.append(s["name"] == name or (s["parent"] is not None and inside[s["parent"]]))
    return inside


def summarize(spans: list[dict], methods) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    dur, self_ms = _times(spans)

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name = s["name"]
        calls[name] += 1
        total[name] += dur[i]
        layer_self[name.split(".", 1)[0]] += self_ms[i]
        for key in ("pairs", "rows_added", "adam_steps", "rows"):
            counters[f"{name}.{key}"] += s.get(key, 0)
        if name == "models.train" and "non-finite" in s.get("error", ""):
            counters["models.train.nonfinite"] += 1

    # a fit is one model built for a cell outside tuning; a knn "fit" is
    # one reference set per cell. Useful fits are the distinct
    # (dataset, scorer[, d for regret_net]) inputs among them.
    fits = []
    knn_sets = set()
    for s, tuning in zip(spans, _inside(spans, _CV)):
        if "fit" not in s or tuning:
            continue
        if s["name"] == "models.knn_scores":
            if (s["cell"], s["fit_obj"]) in knn_sets:
                continue
            knn_sets.add((s["cell"], s["fit_obj"]))
        fits.append(tuple(s["fit"]))

    eval_ms = [dur[i] for i, s in enumerate(spans) if s["name"] == _EVAL]
    eval_child = sum(dur[i] - self_ms[i] for i, s in enumerate(spans) if s["name"] == _EVAL)
    cell_ms: dict[str, list[float]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s["name"] == _CELL:
            cell_ms[s["cell"].rsplit("|", 1)[1]].append(dur[i])

    ms, count, ratio = "ms", "count", "ratio"
    out = {
        "models.knn_scores.calls": (calls["models.knn_scores"], count),
        "models.knn_scores.ms": (total["models.knn_scores"], ms),
        "models.knn_scores.pairs": (counters["models.knn_scores.pairs"], count),
        "smote.smote_balance.calls": (calls["smote.smote_balance"], count),
        "smote.smote_balance.ms": (total["smote.smote_balance"], ms),
        "smote.smote_balance.rows_added": (counters["smote.smote_balance.rows_added"], count),
        "models.fit_logistic.calls": (calls["models.fit_logistic"], count),
        "models.fit_logistic.ms": (total["models.fit_logistic"], ms),
        "models.fit_cart.calls": (calls["models.fit_cart"], count),
        "models.fit_cart.ms": (total["models.fit_cart"], ms),
        "models.cart_scores.ms": (total["models.cart_scores"], ms),
        "models.useful_fit_ratio": (len(set(fits)) / len(fits) if fits else 0.0, ratio),
        "models.train.calls": (calls["models.train"], count),
        "models.train.ms": (total["models.train"], ms),
        "models.train.nonfinite": (counters["models.train.nonfinite"], count),
        "models.train.adam_steps": (counters["models.train.adam_steps"], count),
        "models.forward_batch.ms": (total["models.forward_batch"], ms),
        "experiments.monte_carlo_cv.ms": (total[_CV], ms),
        "metrics.msp.calls": (calls["metrics.msp"], count),
        "metrics.msp.ms": (total["metrics.msp"], ms),
        "metrics.accuracy.ms": (total["metrics.accuracy"], ms),
        "experiments.evaluate_cell.calls": (len(eval_ms), count),
        "experiments.evaluate_cell.ms_p50": (_percentile(eval_ms, 50), ms),
        "experiments.evaluate_cell.ms_p95": (_percentile(eval_ms, 95), ms),
        "trace.evaluate_cell_child_frac": (eval_child / sum(eval_ms) if eval_ms else 0.0, ratio),
        "data.load_dataset.rows": (counters["data.load_dataset.rows"], count),
        "data.load_dataset.ms": (total["data.load_dataset"], ms),
        "experiments.generate_synthetic.ms": (total["experiments.generate_synthetic"], ms),
        "data.standardize.ms": (total["data.standardize"], ms),
        "campaign.ms": (layer_self["campaign"], ms),
        "stats.ms": (layer_self["stats"], ms),
        "cli.write_ms": (sum(total[name] for name in _WRITES), ms),
    }
    for method in methods:
        values = cell_ms.get(method)
        out[f"experiments.cell_ms.{method}"] = (statistics.median(values) if values else 0.0, ms)
    for layer in LAYERS:
        if layer not in ("campaign", "stats"):  # reported above as <layer>.ms
            out[f"{layer}.self_ms"] = (layer_self[layer], ms)
    return out


def evaluate_cell_breakdown(spans: list[dict]) -> dict[str, float]:
    """Self time (ms) per layer inside evaluate_cell calls; sums to their total."""
    _, self_ms = _times(spans)
    out: dict[str, float] = defaultdict(float)
    for s, t, inside in zip(spans, self_ms, _inside(spans, _EVAL)):
        if inside:
            out[s["name"].split(".", 1)[0]] += t
    return dict(out)


def cell_time_ms(spans: list[dict]) -> float:
    """Summed duration of every benchmark cell in a traced run."""
    return sum(1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == _CELL)
