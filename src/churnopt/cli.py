"""Command-line front end.

Subcommands: ``generate`` (synthetic CSVs), ``benchmark`` (full
dataset x d x method grid with ranking and comparison tests), ``stats``
(rank + test any profit matrix), ``sweep`` (incentive-sensitivity
tables). Exit codes: 0 success, 1 usage or config error, 2 a benchmark
cell failed. The CHURNOPT_OUT environment variable sets the default
output directory; flags override config-file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiments as ex
from .data import load_dataset, read_csv_rows, save_dataset
from .stats import comparison_summary, rank_methods

__all__ = ["main"]


class _CliError(Exception):
    """Usage or configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _default_out() -> str:
    return os.environ.get("CHURNOPT_OUT", "churnopt_out")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
        raise _CliError(f"{path}: {exc}")


def _spec_from_dict(raw, default_seed: int = 0) -> ex.SyntheticSpec:
    if not isinstance(raw, dict):
        raise _CliError(f"a synthetic spec must be a JSON object, got {raw!r}")
    raw = dict(raw)
    raw.setdefault("seed", default_seed)
    try:
        return ex.SyntheticSpec(**raw)
    except (TypeError, ValueError) as exc:  # TypeError names an unknown key
        raise _CliError(f"invalid synthetic spec: {exc}")


def _generate(spec: ex.SyntheticSpec):
    try:
        return ex.generate_synthetic(spec)
    except (ValueError, OverflowError) as exc:  # e.g. never both classes, or CLVs beyond float range
        raise _CliError(f"invalid synthetic spec: {exc}")


# run-config block (None: top level) -> key -> RunConfig field; the
# defaults live in RunConfig alone
_CONFIG_FIELDS = {
    None: {key: key for key in (
        "d_grid", "methods", "q", "class_threshold", "regret_net_accuracy", "drop_below_break_even", "seed",
    )},
    "campaign": {"f": "f", "gamma": "gamma", "slope": "slope"},
    "model": {"hidden": "hidden", "learning_rate": "learning_rate", "epochs": "epochs", "batch_size": "batch_size"},
    "cv": {"learning_rates": "cv_learning_rates", "epochs": "cv_epochs", "splits": "cv_splits", "seeds": "cv_seeds"},
    "smote": {"k_neighbors": "smote_k", "ratio": "smote_ratio"},
    "baselines": {"knn_k": "knn_k", "cart_max_depth": "cart_max_depth", "cart_min_leaf": "cart_min_leaf"},
}
# RunConfig fields annotated as tuples, given as a JSON list
_LIST_FIELDS = {fld.name for fld in fields(ex.RunConfig) if fld.type.startswith("tuple[")}
# the keys a config may hold at top level: RunConfig fields, blocks, and
# the keys read outside RunConfig
_TOP_LEVEL_KEYS = set(_CONFIG_FIELDS[None]) | {block for block in _CONFIG_FIELDS if block} | {"datasets", "out_dir"}


def _run_config(config) -> ex.RunConfig:
    """RunConfig from the keys a JSON config sets; an unknown key or block is an error."""
    if not isinstance(config, dict):
        raise _CliError(f"the config must be a JSON object, got {type(config).__name__}")
    if not isinstance(config.get("out_dir", ""), str):
        raise _CliError(f"config key 'out_dir' must be a string, got {config['out_dir']!r}")
    kwargs = {}
    for block, keys in _CONFIG_FIELDS.items():
        scope = config if block is None else config.get(block, {})
        if not isinstance(scope, dict):
            raise _CliError(f"config key {block!r} must be a JSON object, got {scope!r}")
        known = _TOP_LEVEL_KEYS if block is None else set(keys)
        unknown = sorted(f"{block}.{key}" if block else key for key in set(scope) - known)
        if unknown:
            raise _CliError(f"unknown config key(s) {unknown}")
        for key, field in keys.items():
            if key not in scope:
                continue
            value = scope[key]
            if field in _LIST_FIELDS:
                if not isinstance(value, list):
                    raise _CliError(f"config key {field!r} must be a list, got {value!r}")
                value = tuple(value)
            kwargs[field] = value
    try:
        return ex.RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise _CliError(f"invalid config: {exc}")


def _build_datasets(config: dict, cfg: ex.RunConfig):
    """Materialize (name, train, test) triples from the config."""
    spec = config.get("datasets", "bundled")
    if spec == "bundled":
        out = [(s.name, *ex.generate_synthetic(s)) for s in ex.bundled_specs(cfg.seed)]
    elif isinstance(spec, dict) and set(spec) == {"synthetic"} and isinstance(spec["synthetic"], list):
        specs = [_spec_from_dict(raw, default_seed=cfg.seed + i) for i, raw in enumerate(spec["synthetic"])]
        out = [(s.name, *_generate(s)) for s in specs]
    elif isinstance(spec, list):
        out = []
        for entry in spec:
            if not (isinstance(entry, dict) and set(entry) == {"name", "train", "test"}
                    and all(isinstance(v, str) for v in entry.values())):
                raise _CliError(f"dataset entry {entry!r} must be an object of strings 'name', 'train' and 'test'")
            try:
                train = load_dataset(entry["train"], name=f"{entry['name']}_train")
                test = load_dataset(entry["test"], name=f"{entry['name']}_test")
            except OSError as exc:
                raise _CliError(f"dataset file {exc.filename}: {exc.strerror}")
            except ValueError as exc:
                raise _CliError(str(exc))
            out.append((entry["name"], train, test))
    else:
        raise _CliError("config key 'datasets' must be 'bundled', a {synthetic: [...]} block, or a list of files")
    if not out:
        raise _CliError("config key 'datasets' lists no dataset")
    return out


def _write_json(payload: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def cmd_generate(args) -> int:
    raw = _load_json(args.spec)
    if isinstance(raw, dict) and "specs" in raw:
        raw_specs = raw["specs"]
    elif isinstance(raw, list):
        raw_specs = raw
    else:
        raw_specs = [raw]
    if not isinstance(raw_specs, list):
        raise _CliError("'specs' must be a list of synthetic specs")
    specs = [_spec_from_dict(r, default_seed=i) for i, r in enumerate(raw_specs)]
    out = Path(args.out)
    for s in specs:
        train, test = _generate(s)
        for ds, tag in ((train, "train"), (test, "test")):
            path = save_dataset(ds, out / f"{s.name}_{tag}.csv")
            print(f"wrote {path} ({len(ds)} rows)")
    return 0


def _benchmark_run(args):
    config = _load_json(args.config) if args.config else {}
    cfg = _run_config(config)
    datasets = _build_datasets(config, cfg)
    out = Path(args.out or config.get("out_dir") or _default_out())
    try:
        report = ex.run_benchmark(datasets, cfg, jobs=args.jobs)
    except ValueError as exc:  # raised while planning, before any cell runs
        raise _CliError(f"invalid config: {exc}")
    return config, cfg, datasets, out, report


def cmd_benchmark(args) -> int:
    _, cfg, datasets, out, report = _benchmark_run(args)
    names = [name for name, _, _ in datasets]
    cells_path = report.to_csv(out / "benchmark_cells.csv")
    summary = ex.benchmark_summary(report, cfg, names, alpha=args.alpha)
    summary_path = _write_json(summary, out / "summary.json")
    n_ok = sum(1 for c in report.cells if c.status == "ok")
    print(f"wrote {cells_path} ({n_ok}/{len(report.cells)} cells ok)")
    print(f"wrote {summary_path}")
    return _report_failures(report)


def cmd_sweep(args) -> int:
    _, cfg, datasets, out, report = _benchmark_run(args)
    tables = ex.sensitivity_sweep(report, cfg)
    for stem, rows in tables.items():
        path = ex.write_table_csv(rows, out / f"{stem}.csv")
        print(f"wrote {path} ({len(rows)} rows)")
    return _report_failures(report)


def _report_failures(report: ex.BenchmarkReport) -> int:
    """List each failed cell on stderr; the exit code of the run."""
    for c in report.failed:
        print(f"FAILED {c.dataset} d={c.d_label} {c.method}: {c.error}", file=sys.stderr)
    return 2 if report.failed else 0


def _read_profit_matrix(path: str):
    try:
        rows = list(read_csv_rows(Path(path)))
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror}")
    except ValueError as exc:
        raise _CliError(str(exc))
    if not rows or len(rows[0]) < 2:
        raise _CliError(f"{path}: expected header 'dataset,<method>,...'")
    methods = [h.strip() for h in rows[0][1:]]
    for col, method in enumerate(methods):
        if method in methods[:col]:
            raise _CliError(f"{path}: column {col + 2}: method {method!r} appears more than once")
    datasets, values = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(methods) + 1:
            raise _CliError(f"{path}: line {i}: expected {len(methods) + 1} cells, got {len(row)}")
        datasets.append(row[0])
        try:
            values.append([float(v) for v in row[1:]])
        except ValueError:
            raise _CliError(f"{path}: line {i}: non-numeric profit value")
        if not np.all(np.isfinite(values[-1])):
            raise _CliError(f"{path}: line {i}: non-finite profit value")
    if not datasets:
        raise _CliError(f"{path}: no data rows")
    return methods, datasets, np.asarray(values).T  # (methods x datasets)


def cmd_stats(args) -> int:
    methods, datasets, profits = _read_profit_matrix(args.profits)
    if len(methods) < 3:
        raise _CliError(f"need at least 3 methods for the Friedman test, got {len(methods)}")
    table = rank_methods(profits, methods, datasets)
    summary = comparison_summary(table, args.alpha)
    fr = summary["friedman"]
    if "note" in fr:
        raise _CliError(fr["note"])

    print(f"Friedman (Iman-Davenport): F = {fr['f_stat']:.4f}, p = {fr['p_value']:.6f}")
    print(f"{'method':<16} {'avg rank':>9} {'avg profit':>11} {'p-value':>9} {'threshold':>10} outcome")
    order = np.argsort(table.avg_ranks, kind="stable")
    by_method = {c["method"]: c for c in summary["holm"]["comparisons"]}
    for i in order:
        m = table.methods[i]
        c = by_method.get(m)
        stat = f"{c['p_value']:>9.4f} {c['threshold']:>10.4f} {c['outcome']}" if c else f"{'-':>9} {'-':>10} -"
        print(f"{m:<16} {table.avg_ranks[i]:>9.4f} {table.avg_profits[i]:>11.2f} {stat}")

    path = _write_json({"alpha": args.alpha, **summary}, Path(args.out or _default_out()) / "stats.json")
    print(f"wrote {path}")
    return 0


def _alpha(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="churnopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic train/test CSVs from a spec file")
    p.add_argument("--spec", required=True, help="JSON spec file: one spec, a list, or {'specs': [...]}")
    p.add_argument("--out", default=_default_out(), help="output directory")
    p.set_defaults(fn=cmd_generate)

    for name, fn, helptext in (
        ("benchmark", cmd_benchmark, "run the dataset x d x method grid and the comparison tests"),
        ("sweep", cmd_sweep, "run the grid and emit incentive-sensitivity tables"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON run config (defaults to the bundled synthetic run)")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1, help="parallel worker processes")
        if name == "benchmark":
            p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
        p.set_defaults(fn=fn)

    p = sub.add_parser("stats", help="rank a profit matrix CSV and run Friedman/Nemenyi/Holm")
    p.add_argument("--profits", required=True, help="CSV: header 'dataset,<method>,...', one row per dataset")
    p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    p.add_argument("--out", help="output directory for stats.json")
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
