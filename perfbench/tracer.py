"""Run the churnopt CLI in this process with a span around every layer call.

Usage: python3 tracer.py SPANS.jsonl CLI-ARG...

The program is not edited. Before the CLI starts, the functions that
``churnopt.experiments`` and ``churnopt.cli`` look up in their own module
namespaces (the public functions of every layer, plus the experiments
entry points they call among themselves) are replaced by wrappers. Each
wrapper records one span: name, start, end, parent span and cell id,
plus a few counters taken from the call's arguments. Spans stay in memory
and are written as JSON lines when the CLI returns.

Only a serial run is traced: pool workers would hold their own spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types

import churnopt.cli as cli
import churnopt.experiments as ex

# experiments' own functions whose calls mark a layer boundary
_EXPERIMENTS_ENTRY = (
    "bundled_specs",
    "generate_synthetic",
    "run_benchmark",
    "_run_cell",
    "evaluate_cell",
    "monte_carlo_cv",
    "benchmark_summary",
)
_CLI_ENTRY = ("_run_config", "_build_datasets", "_write_json")
# methods of classes the experiments layer creates and calls
_METHODS = (("churnopt.models", "LogisticModel", "score_batch"), ("churnopt.experiments", "BenchmarkReport", "to_csv"))


class Tracer:
    """In-memory span store; one stack, since the traced run is serial."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._cell: str | None = None

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent, "cell": self._cell}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            outer_cell = self._cell
            if name == "experiments._run_cell":
                self._cell = span["cell"] = _cell_id(args, index)
            error = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self._cell = outer_cell
                if error is not None:
                    span["error"] = f"{type(error).__name__}: {error}"
                if attrs is not None:
                    try:
                        span.update(attrs(args, kwargs, None if error else result))
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        span["attrs_error"] = repr(exc)  # the call's signature changed
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _cell_id(args, index: int) -> str:
    """dataset|d_label|method of a _run_cell task tuple, else a span-unique id."""
    try:
        name, _, _, method, _, d_label, _, _ = args[0]
        return f"{name}|{d_label}|{method}"
    except (TypeError, ValueError):
        return f"cell{index}|?|?"


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _knn_attrs(args, kwargs, _):
    train, X = _arg(args, kwargs, 0, "train"), _arg(args, kwargs, 1, "X")
    # a knn "fit" is the reference set it scores against
    return {"pairs": len(train) * len(X), "fit": [train.name, "knn"], "fit_obj": id(train)}


def _train_attrs(args, kwargs, _):
    data = _arg(args, kwargs, 1, "data")
    params, cfg = _arg(args, kwargs, 2, "params"), _arg(args, kwargs, 3, "cfg")
    n = len(data)
    fit = [data.name, "xent_net"] if cfg.loss == "cross-entropy" else [data.name, "regret_net", params.d]
    return {"adam_steps": cfg.epochs * math.ceil(n / cfg.resolve_batch_size(n)), "fit": fit}


def _smote_attrs(args, kwargs, result):
    train = _arg(args, kwargs, 0, "train")
    return {"rows_added": len(result) - len(train)} if result is not None else {}


def _fit_attrs(scorer):
    return lambda args, kwargs, _: {"fit": [_arg(args, kwargs, 0, "data").name, scorer]}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(result)} if result is not None else {}


_ATTRS = {
    "models.knn_scores": _knn_attrs,
    "models.train": _train_attrs,
    "models.fit_logistic": _fit_attrs("logistic"),
    "models.fit_cart": _fit_attrs("cart"),
    "smote.smote_balance": _smote_attrs,
    "data.load_dataset": _rows_attrs,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(tracer: Tracer) -> None:
    """Wrap the layer calls seen from experiments and cli."""
    for module, own in ((ex, _EXPERIMENTS_ENTRY), (cli, _CLI_ENTRY)):
        for attr, value in list(vars(module).items()):
            if not isinstance(value, types.FunctionType) or not value.__module__.startswith("churnopt."):
                continue
            if value.__module__ == module.__name__ and attr not in own:
                continue  # a private helper of the calling module itself
            name = _span_name(value)
            setattr(module, attr, tracer.wrap(name, value, _ATTRS.get(name)))
    for module_name, cls_name, method in _METHODS:
        fn = getattr(getattr(sys.modules[module_name], cls_name, None), method, None)
        if isinstance(fn, types.FunctionType):
            setattr(getattr(sys.modules[module_name], cls_name), method, tracer.wrap(_span_name(fn), fn))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
