"""Command-line front end.

Subcommands: ``generate`` (synthetic CSVs), ``benchmark`` (full
dataset x d x method grid with ranking, comparison tests and
incentive-sensitivity tables), ``stats`` (rank + test any profit
matrix). Exit codes: 0 success, 1 usage or config error or a dead
benchmark worker, 2 a benchmark cell failed. The CHURNOPT_OUT environment
variable sets the default output directory; flags override the config file.
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
from ._settings import config_key
from .data import load_dataset, read_csv_rows, save_dataset
from .stats import _first_repeat, comparison_summary, rank_methods

__all__ = ["main"]


class _CliError(Exception):
    """Usage or configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _default_out() -> str:
    return os.environ.get("CHURNOPT_OUT", "churnopt_out")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key (json would keep its last value)."""
    repeated = _first_repeat([key for key, _ in pairs])
    if repeated is not None:
        raise ValueError(f"key {pairs[repeated][0]!r} appears more than once")
    return dict(pairs)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, a repeated key, or nested too deep
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
    except (ValueError, OverflowError, MemoryError) as exc:  # e.g. one class only, CLVs past float range, too many rows
        raise _CliError(f"invalid synthetic spec: {exc}")


def _run_config(config) -> ex.RunConfig:
    """RunConfig from the keys a JSON config sets; an unknown key or block is an error."""
    if not isinstance(config, dict):
        raise _CliError(f"the config must be a JSON object, got {type(config).__name__}")
    if not isinstance(config.get("out_dir", ""), str):
        raise _CliError(f"config key 'out_dir' must be a string, got {config['out_dir']!r}")
    layout = {None: {}}  # block (None: top level, checked first) -> key -> the RunConfig field it sets
    for fld in fields(ex.RunConfig):
        layout.setdefault(fld.metadata.get("block"), {})[fld.metadata.get("key", fld.name)] = fld
    kwargs = {}
    for block, keys in layout.items():
        scope = config if block is None else config.get(block, {})
        if not isinstance(scope, dict):
            raise _CliError(f"config key {block!r} must be a JSON object, got {scope!r}")
        # the top level also holds the blocks and the keys read outside RunConfig
        known = set(keys) | ({"datasets", "out_dir", *filter(None, layout)} if block is None else set())
        unknown = sorted(f"{block}.{key}" if block else key for key in set(scope) - known)
        if unknown:
            raise _CliError(f"unknown config key(s) {unknown}")
        for key, fld in keys.items():
            if key not in scope:
                continue
            value = scope[key]
            if fld.type.startswith("tuple["):
                if not isinstance(value, list):
                    raise _CliError(f"config key {config_key(fld)!r} must be a list, got {value!r}")
                value = tuple(value)
            kwargs[fld.name] = value
    try:
        return ex.RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise _CliError(f"invalid config: {exc}")


def _datasets(config: dict, cfg: ex.RunConfig):
    """Check the config's datasets, then an iterator that draws or loads one (name, train, test) per step.

    The datasets value, every synthetic spec and every file entry are
    checked before the first dataset is built; a spec that cannot be
    drawn or a file that cannot be loaded raises from the iterator.
    """
    spec = config.get("datasets", "bundled")
    if spec == "bundled":
        sources = ex.bundled_specs(cfg.seed)
    elif isinstance(spec, dict) and set(spec) == {"synthetic"} and isinstance(spec["synthetic"], list):
        sources = [_spec_from_dict(raw, default_seed=cfg.seed + i) for i, raw in enumerate(spec["synthetic"])]
    elif isinstance(spec, list):
        for entry in spec:
            if not (isinstance(entry, dict) and set(entry) == {"name", "train", "test"}
                    and all(isinstance(v, str) for v in entry.values())):
                raise _CliError(f"dataset entry {entry!r} must be an object of strings 'name', 'train' and 'test'")
        sources = spec
    else:
        raise _CliError("config key 'datasets' must be 'bundled', a {synthetic: [...]} block, or a list of files")
    if not sources:
        raise _CliError("config key 'datasets' lists no dataset")
    return (_dataset(source) for source in sources)


def _dataset(source) -> tuple:
    """One (name, train, test): drawn from a SyntheticSpec, or loaded from a checked file entry."""
    if isinstance(source, ex.SyntheticSpec):
        return (source.name, *_generate(source))
    try:
        train = load_dataset(source["train"], name=f"{source['name']}_train")
        # columns are matched by name, in the train file's order
        test = load_dataset(source["test"], schema=train.schema, name=f"{source['name']}_test")
    except OSError as exc:
        raise _CliError(f"dataset file {exc.filename}: {exc.strerror}")
    except ValueError as exc:
        raise _CliError(str(exc))
    return source["name"], train, test


def _build_datasets(config: dict, cfg: ex.RunConfig) -> list:
    """Every (name, train, test) of the config at once."""
    return list(_datasets(config, cfg))


def _write_json(payload: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def cmd_generate(args) -> int:
    raw = _load_json(args.spec)
    if isinstance(raw, dict) and "specs" in raw:
        raw = raw["specs"]
        if not isinstance(raw, list):
            raise _CliError("'specs' must be a list of synthetic specs")
    specs = [_spec_from_dict(r, default_seed=i) for i, r in enumerate(raw if isinstance(raw, list) else [raw])]
    if not specs:
        raise _CliError(f"{args.spec} lists no synthetic spec")
    for s in specs:  # each name becomes two files in --out
        if s.name in ("", "..") or "\0" in s.name or Path(s.name).name != s.name:
            raise _CliError(f"spec name {s.name!r} must be a plain file name")
    repeated = _first_repeat([s.name for s in specs])
    if repeated is not None:
        raise _CliError(f"spec name {specs[repeated].name!r} appears more than once")
    drawn = [(s.name, _generate(s)) for s in specs]  # all of them first, so a spec that fails leaves no file
    out = Path(args.out)
    for name, splits in drawn:
        for ds, tag in zip(splits, ("train", "test")):
            path = save_dataset(ds, out / f"{name}_{tag}.csv")
            print(f"wrote {path} ({len(ds)} rows)")
    return 0


def cmd_benchmark(args) -> int:
    config = _load_json(args.config) if args.config else {}
    cfg = _run_config(config)
    out = Path(args.out or config.get("out_dir") or _default_out())
    try:  # each dataset is built as the plan reaches it, so one raw dataset at most is held at a time
        report = ex.run_benchmark(_datasets(config, cfg), cfg, jobs=args.jobs, out_dir=out)
    except ValueError as exc:  # raised while planning, before any cell runs
        raise _CliError(f"invalid config: {exc}")
    except RuntimeError as exc:  # a worker died, or the pool lost results
        raise _CliError(str(exc))
    cells_path = report.to_csv(out / "benchmark_cells.csv")
    summary = ex.benchmark_summary(report, cfg, list(dict.fromkeys(c.dataset for c in report.cells)), alpha=args.alpha)
    summary_path = _write_json(summary, out / "summary.json")
    n_ok = sum(1 for c in report.cells if c.status == "ok")
    print(f"wrote {cells_path} ({n_ok}/{len(report.cells)} cells ok)")
    print(f"wrote {summary_path}")
    for stem, rows in ex.sensitivity_sweep(report, cfg).items():
        path = ex.write_table_csv(rows, out / f"{stem}.csv")
        print(f"wrote {path} ({len(rows)} rows)")
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
    repeated = _first_repeat(methods)
    if repeated is not None:
        raise _CliError(f"{path}: column {repeated + 2}: method {methods[repeated]!r} appears more than once")
    datasets, values = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(methods) + 1:
            raise _CliError(f"{path}: line {i}: expected {len(methods) + 1} cells, got {len(row)}")
        if row[0] in datasets:
            raise _CliError(f"{path}: line {i}: dataset {row[0]!r} appears more than once")
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
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
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

    p = sub.add_parser("benchmark", help="run the dataset x d x method grid, its tests and sensitivity tables")
    p.add_argument("--config", help="JSON run config (defaults to the bundled synthetic run)")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    # the CPUs this process may run on: its affinity mask where the OS has one, else every CPU of the host
    usable_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    p.add_argument("--jobs", type=_jobs, default=usable_cpus,
                   help="parallel worker processes (default: the CPUs this process may run on)")
    p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    p.set_defaults(fn=cmd_benchmark)

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
    except OSError as exc:  # creating or writing an output; the readers report their own
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
