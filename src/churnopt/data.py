"""Customer data model, CSV ingestion, standardization, CLV segmentation.

CSV schema: header ``f1,...,fK,clv,label`` with K >= 1, UTF-8, ``.``
decimal separator, no thousands separators. ``label`` is 0 for a churner
and 1 for a non-churner; ``clv`` is the customer lifetime value in euros
and must be strictly positive. Every cell must hold a finite number.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "read_csv_rows",
    "load_dataset",
    "save_dataset",
    "write_csv",
    "standardize",
    "quantile_segments",
    "assign_segments",
]

RESERVED_COLUMNS = ("clv", "label")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of customers sharing one schema."""

    name: str
    schema: tuple[str, ...]
    features: np.ndarray  # (n, k) float64
    labels: np.ndarray  # (n,) int64, values in {0, 1}
    clvs: np.ndarray  # (n,) float64, finite and strictly positive

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels)
        clvs = np.asarray(self.clvs, dtype=float)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        n, k = feats.shape
        if n == 0:
            raise ValueError(f"dataset {self.name!r} is empty")
        if k != len(self.schema):
            raise ValueError(f"feature width {k} does not match schema width {len(self.schema)}")
        seen = set()
        for col in self.schema:  # each name must read back as a column of its own from a saved header
            if col in seen or col in RESERVED_COLUMNS:
                raise ValueError(f"schema name {col!r} is {'repeated' if col in seen else 'reserved'}")
            seen.add(col)
        if labels.shape != (n,) or clvs.shape != (n,):
            raise ValueError("features, labels and clvs must agree in length")
        bad = np.flatnonzero(~np.isin(labels, (0, 1)))  # before the cast, which would truncate 0.7 to 0
        if bad.size:
            raise ValueError(f"label must be 0 or 1 at row {bad[0] + 1}")
        labels = labels.astype(np.int64, copy=False)
        bad = np.flatnonzero(~((clvs > 0) & np.isfinite(clvs)))
        if bad.size:
            raise ValueError(f"clv must be finite and > 0 at row {bad[0] + 1}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        # freeze views: asarray may have returned the caller's own arrays, which stay writeable
        for key, arr in (("features", feats), ("labels", labels), ("clvs", clvs)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, key, view)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def churn_rate(self) -> float:
        return float(np.mean(self.labels == 0))

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return replace(self, features=self.features[idx], labels=self.labels[idx], clvs=self.clvs[idx])


def read_csv_rows(path: Path):
    """Yield the rows of a UTF-8 CSV file, without a leading byte-order mark.

    Undecodable or malformed text raises ValueError naming the file.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            yield from csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_dataset(path: str | Path, schema: Sequence[str] | None = None, name: str | None = None) -> Dataset:
    """Load and validate a dataset CSV.

    A plain numeric file is parsed in one C pass (``np.loadtxt``, whose
    cells go through the same string-to-double routine as ``float()``).
    Anything that pass refuses or that fails a check is read again row by
    row, which defines what is accepted and names the first bad cell.

    Args:
        path: CSV file with a header row holding at least one feature
            column plus ``clv`` and ``label``.
        schema: expected feature columns. When given, the header must
            contain exactly these features (any order); row vectors follow
            the schema order. When omitted, the features are all header
            columns except ``clv``/``label``, in header order.
        name: dataset identifier; defaults to the file stem.

    Raises:
        ValueError: text that is not UTF-8 CSV, a missing, unexpected or
            repeated column, no feature column, a non-numeric or
            non-finite cell, clv <= 0, or label outside {0, 1} -- each
            reported with the path and, for a cell, its data row number
            (first data row is row 1).
        OSError: the file cannot be opened.
    """
    path = Path(path)
    reader = read_csv_rows(path)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    for col in RESERVED_COLUMNS:
        if col not in header:
            raise ValueError(f"{path}: missing required column {col!r}")
    if schema is None:
        feature_cols = [h for h in header if h not in RESERVED_COLUMNS]
    else:
        feature_cols = list(schema)
        missing = [c for c in feature_cols if c not in header]
        if missing:
            raise ValueError(f"{path}: missing feature column(s) {missing}")
        extra = [h for h in header if h not in feature_cols and h not in RESERVED_COLUMNS]
        if extra:
            raise ValueError(f"{path}: unexpected column(s) {extra}")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header")
    if not feature_cols:
        raise ValueError(f"{path}: no feature column besides 'clv' and 'label'")
    parsed = _parse_table(path, header, feature_cols)
    if parsed is None:
        parsed = _parse_rows(path, reader, header, feature_cols)
    reader.close()
    return Dataset(name if name is not None else path.stem, tuple(feature_cols), *parsed)


def _parse_table(path: Path, header: list[str], feature_cols: list[str]):
    """Features, labels and clvs of a plain numeric file in one C pass; None where the row loop must decide.

    None when np.loadtxt refuses the text (quotes, ``1_000``, non-ASCII
    digits, blank-celled or ragged rows), finds no row or a failed check,
    or when the bytes hold what it would read differently from csv and
    ``float()``: a cell longer than csv's field size limit, or one of the
    ASCII separators 0x1c-0x1f, which np.loadtxt strips as whitespace and
    float() refuses.
    """
    # a delimiter in every full block bounds each cell at 2 * block - 2 chars
    block = max(1, csv.field_size_limit() // 2)
    with path.open("rb") as fh:
        while chunk := fh.read(block):
            if len(chunk) == block and not any(sep in chunk for sep in b",\n\r"):
                return None
            if any(sep in chunk for sep in b"\x1c\x1d\x1e\x1f"):
                return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, encoding="utf-8-sig", ndmin=2)
    except ValueError:
        return None
    if table.shape[0] == 0 or table.shape[1] != len(header):
        return None
    clvs, labels = table[:, header.index("clv")], table[:, header.index("label")]
    if not (np.isfinite(table).all() and (clvs > 0).all() and ((labels == 0) | (labels == 1)).all()):
        return None
    # copies, so the returned columns do not keep the whole table alive
    return table[:, [header.index(c) for c in feature_cols]], labels.astype(np.int64), clvs.copy()


def _parse_rows(path: Path, reader, header: list[str], feature_cols: list[str]):
    """Features, labels and clvs of the rows after the header, each cell parsed by float().

    Raises ValueError at the first bad row or cell; blank rows are skipped.
    """
    feat_idx = [header.index(c) for c in feature_cols]
    clv_idx, label_idx = header.index("clv"), header.index("label")
    rows_feat: list[list[float]] = []
    rows_label: list[int] = []
    rows_clv: list[float] = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue  # ignore blank lines
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")

        def parse(cell: str, col: str) -> float:
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}, column {col!r}: non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {row_no}, column {col!r}: non-finite value {cell!r}")
            return value

        feats = [parse(row[i], feature_cols[j]) for j, i in enumerate(feat_idx)]
        clv = parse(row[clv_idx], "clv")
        if not clv > 0:
            raise ValueError(f"{path}: row {row_no}: clv must be > 0, got {clv}")
        label_f = parse(row[label_idx], "label")
        if label_f not in (0.0, 1.0):
            raise ValueError(f"{path}: row {row_no}: label must be 0 or 1, got {row[label_idx]!r}")
        rows_feat.append(feats)
        rows_label.append(int(label_f))
        rows_clv.append(clv)

    if not rows_feat:
        raise ValueError(f"{path}: no data rows")
    return (
        np.asarray(rows_feat, dtype=float),
        np.asarray(rows_label, dtype=np.int64),
        np.asarray(rows_clv, dtype=float),
    )


def save_dataset(ds: Dataset, path: str | Path) -> Path:
    """Write a dataset as CSV, lossless for a float round trip, in write_csv's bytes.

    Only the header goes through csv, since a name may need quoting; the
    reprs of finite floats and 0/1 labels never do.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([*ds.schema, "clv", "label"])
        fh.writelines(
            f"{','.join(map(repr, f))},{c!r},{y}\r\n"
            for f, c, y in zip(ds.features.tolist(), ds.clvs.tolist(), ds.labels.tolist())
        )
    return path


def write_csv(path: str | Path, rows) -> Path:
    """Write rows of cells as UTF-8 CSV, the header row first; no row gives an empty file.

    A float is written as repr(float(v)), which reads back to the same
    value, and NaN as an empty cell; any other cell as str(v).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            [("" if v != v else repr(float(v))) if isinstance(v, float) else str(v) for v in row] for row in rows
        )
    return path


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Z-score both splits using statistics computed on train only.

    Train columns come out with mean 0 and (population) std 1. A
    zero-variance train column is centered but not scaled, so it maps to
    constant 0 on train; a warning is emitted because the column carries
    no information. Labels and CLVs are untouched.

    Raises ValueError naming the first column whose std or standardized
    values are not finite (values near the float maximum overflow).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
        dead = std == 0
        std = np.where(dead, 1.0, std)
        train_z = (train.features - mean) / std
        test_z = (test.features - mean) / std
    finite = np.isfinite(std) & np.isfinite(train_z).all(axis=0) & np.isfinite(test_z).all(axis=0)
    if not finite.all():
        col = train.schema[int(np.argmin(finite))]
        raise ValueError(f"feature column {col!r} does not standardize to finite values")
    if np.any(dead):
        cols = [train.schema[j] for j in np.flatnonzero(dead)]
        warnings.warn(f"zero-variance feature column(s) {cols}; mapped to constant 0", stacklevel=2)
    return replace(train, features=train_z), replace(test, features=test_z)


def quantile_segments(clvs, q: int) -> list[np.ndarray]:
    """Split a raw CLV vector into q near-equal segments of row indices.

    Segment 0 holds the lowest CLVs, and each segment lists its rows in
    index order. Sizes differ by at most one; when n is not divisible by
    q the lower-CLV segments take the extra row. CLV ties are broken by
    row index (stable sort), so the split is deterministic.
    """
    clvs = np.asarray(clvs, dtype=float)
    n = clvs.size
    if not 1 <= q <= n:
        raise ValueError(f"q must be in [1, {n}], got {q}")
    return [np.sort(i) for i in np.array_split(np.argsort(clvs, kind="stable"), q)]


def assign_segments(clvs, edges: np.ndarray) -> np.ndarray:
    """Map CLVs to segments by the given upper edges (clv <= edge -> that segment)."""
    clvs = np.asarray(clvs, dtype=float)
    return np.searchsorted(np.asarray(edges, dtype=float), clvs, side="left")
