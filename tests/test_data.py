"""Dataset loading, validation, standardization, and CLV segmentation."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from churnopt import data
from churnopt.data import (
    Dataset,
    assign_segments,
    load_dataset,
    quantile_segments,
    save_dataset,
    standardize,
)


def outcome(load, path, schema=None):
    """What a loader makes of a file: the dataset's name, schema and array bytes, or its ValueError message."""
    try:
        ds = load(path, schema=schema)
    except ValueError as exc:
        return str(exc)
    return ds.name, ds.schema, *((a.dtype.str, a.shape, a.tobytes()) for a in (ds.features, ds.labels, ds.clvs))


def make_dataset(features, labels, clvs, name="t"):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return Dataset(
        name=name,
        schema=tuple(f"f{i + 1}" for i in range(features.shape[1])),
        features=features,
        labels=np.asarray(labels),
        clvs=np.asarray(clvs, dtype=float),
    )


class TestLoad:
    def test_round_trip_small(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("f1,f2,clv,label\n1.5,-2.0,85.0,0\n0.25,3.5,10.0,1\n-1.0,0.0,42.5,1\n")
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.schema == ("f1", "f2")
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.clvs.tolist() == [85.0, 10.0, 42.5]
        assert ds.features[0].tolist() == [1.5, -2.0]

    def test_negative_clv_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,clv,label\n1.0,10.0,0\n2.0,-5.0,1\n3.0,20.0,1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_dataset(path)

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,clv,label\n1.0,10.0,0\n2.0,5.0,2\n")
        with pytest.raises(ValueError, match="row 2.*label"):
            load_dataset(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,clv,label\noops,10.0,0\n")
        with pytest.raises(ValueError, match="row 1.*'f1'"):
            load_dataset(path)

    @pytest.mark.parametrize("row", ["2.0,inf,1", "nan,20.0,1", "-inf,20.0,1"])
    def test_non_finite_cell_names_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,clv,label\n1.0,10.0,0\n{row}\n")
        with pytest.raises(ValueError, match="row 2.*non-finite"):
            load_dataset(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,label\n1.0,0\n")
        with pytest.raises(ValueError, match="clv"):
            load_dataset(path)

    def test_byte_order_mark_before_clv(self, tmp_path):
        # spreadsheet tools often save UTF-8 CSV with a leading byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfclv,f1,label\n10.0,1.5,0\n20.0,2.5,1\n")
        ds = load_dataset(path)
        assert ds.schema == ("f1",)
        assert ds.clvs.tolist() == [10.0, 20.0]

    def test_byte_order_mark_before_feature(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("f1,clv,label\n1.5,10.0,0\n", encoding="utf-8-sig")
        assert load_dataset(path).schema == ("f1",)
        assert load_dataset(path, schema=["f1"]).features.tolist() == [[1.5]]

    def test_schema_enforced(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,clv,label\n1.0,2.0,10.0,0\n")
        ds = load_dataset(path, schema=["f2", "f1"])
        assert ds.schema == ("f2", "f1")
        assert ds.features[0].tolist() == [2.0, 1.0]
        with pytest.raises(ValueError, match="missing feature"):
            load_dataset(path, schema=["f1", "f3"])
        with pytest.raises(ValueError, match="unexpected"):
            load_dataset(path, schema=["f1"])

    def test_write_then_read_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = make_dataset(
            rng.normal(size=(20, 4)) * 1e3, rng.integers(0, 2, 20), rng.uniform(0.01, 999, 20)
        )
        reloaded = load_dataset(save_dataset(ds, tmp_path / "rt.csv"), name=ds.name)
        assert reloaded.schema == ds.schema
        assert np.array_equal(reloaded.features, ds.features)
        assert np.array_equal(reloaded.labels, ds.labels)
        assert np.array_equal(reloaded.clvs, ds.clvs)


    @settings(max_examples=300, deadline=None)
    @given(
        content=st.one_of(
            st.binary(max_size=200),
            st.lists(
                st.sampled_from(
                    ["f1", "clv", "label", ",", "\n", "\r", '"', "0", "1", "-2.5", "1e308", "nan", " ", "\x00", "\xff"]
                ),
                max_size=40,
            ).map(lambda parts: "f1,clv,label\n".encode() + "".join(parts).encode("latin-1")),
        )
    )
    def test_any_bytes_load_or_raise_value_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(content)
            got = outcome(load_dataset, path)
            assert got == outcome(oracles.load_dataset, path)
            assert "fuzz.csv" in got if isinstance(got, str) else got[0] == "fuzz"

    @pytest.mark.parametrize("schema", [None, ()])
    def test_no_feature_column_names_the_file(self, tmp_path, schema):
        path = tmp_path / "bare.csv"
        path.write_text("clv,label\n10.0,0\n20.0,1\n")
        with pytest.raises(ValueError, match=r"bare\.csv: no feature column"):
            load_dataset(path, schema=schema)

    def test_written_file_never_enters_the_row_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-300, 300, size=(300, 5))
        features[:4, 0] = [5e-324, -0.0, 1.7976931348623157e308, -2.2250738585072014e-308]
        ds = make_dataset(features, rng.integers(0, 2, 300), rng.uniform(1e-300, 1e300, 300), name="w")
        path = save_dataset(ds, tmp_path / "w.csv")
        expected = outcome(oracles.load_dataset, path)

        def row_loop(*args):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(data, "_parse_rows", row_loop)
        assert outcome(load_dataset, path) == expected
        assert np.array_equal(load_dataset(path).features, ds.features)


LONG_ZEROS = "0." + "0" * 200_000  # np.loadtxt parses it; csv's field size limit refuses it
FEATURES = ("f1", "f2", "f3")
ODD_CELLS = ('"3"', "1_000", " 2 ", "\u0661\u0662", "nan", "inf", "-inf", "1e400", "", " ", "abc", "-0",
             "2.", "0.5\xa0", "\x1c1", "1\x00", LONG_ZEROS)
ODD_LINES = ("", ",,", ",,,", "  ", ", ,", "\t")
FEATURE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.4g}"),
)
CLV_CELLS = st.floats(5e-324, 1e308).map(repr) | st.integers(1, 10**6).map(str)
LABEL_CELLS = st.sampled_from(["0", "1", "1.0", "-0", "0e5", "+1"])


@st.composite
def csv_files(draw):
    """(CSV bytes, schema): mostly valid cells, and in some files one odd cell, line or width."""
    n_features = draw(st.integers(1, 3))
    header = draw(st.permutations([*FEATURES[:n_features], "clv", "label"]))
    cells = {"clv": CLV_CELLS, "label": LABEL_CELLS}
    rows = [[draw(cells.get(col, FEATURE_CELLS)) for col in header] for _ in range(draw(st.integers(0, 4)))]
    odd = draw(st.sampled_from(["none", "none", "cell", "line", "ragged", "extra column"]))
    if odd == "cell" and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
    elif odd == "ragged" and rows:
        row = draw(st.sampled_from(rows))
        row.pop() if draw(st.booleans()) else row.append("1")
    elif odd == "extra column":
        rows = [row + ["0"] for row in rows]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if odd == "line":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(ODD_LINES)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    bom = "\ufeff" if draw(st.booleans()) else ""
    schema = draw(st.none() | st.permutations(FEATURES[:n_features]).map(list))
    return (bom + text).encode(), schema


LISTED_FILES = {
    "valid": ("f1,f2,clv,label\n1.5,-2.0,85.0,0\n0.25,3.5,10.0,1\n", None),
    "schema-reordered": ("f1,f2,clv,label\n1.5,-2.0,85.0,0\n0.25,3.5,10.0,1\n", ["f2", "f1"]),
    "bom": ("\ufeffclv,f1,label\n10.0,1.5,0\n20.0,2.5,1\n", None),
    "crlf": ("f1,clv,label\r\n1,2,0\r\n3,4,1\r\n", None),
    "quoted": ('f1,clv,label\n"1",2,0\n', None),
    "underscore": ("f1,clv,label\n1_000,2,0\n", None),
    "padded": ("f1,clv,label\n 2 ,3,1\n", None),
    "arabic-indic-digits": ("f1,clv,label\n\u0661\u0662,3,1\n", None),
    "nan": ("f1,clv,label\n1,2,0\nnan,2,0\n", None),
    "inf": ("f1,clv,label\n1,inf,0\n", None),
    "overflow": ("f1,clv,label\n1e400,2,0\n", None),
    "empty-cell": ("f1,clv,label\n,2,0\n", None),
    "blank-lines": ("f1,clv,label\n\n1,2,0\n,,\n  \n,,,\n3,4,1\n", None),
    "ragged": ("f1,clv,label\n1,2,0\n3,4\n", None),
    "extra-column-every-row": ("f1,clv,label\n1,2,0,9\n3,4,1,9\n", None),
    "field-over-csv-limit": (f"f1,clv,label\n{LONG_ZEROS},2,0\n", None),
    "blank-over-csv-limit": ("f1,clv,label\n" + " " * 140_000 + "1,2,0\n", None),
    "file-separator": ("f1,clv,label\n1\x1c,2,0\n", None),
    "clv-zero": ("f1,clv,label\n1,0,0\n", None),
    "label-two": ("f1,clv,label\n1,2,2\n", None),
    "header-only": ("f1,clv,label\n", None),
}


class TestLoadMatchesOracle:
    """load_dataset equals the row-by-row reader of tests/oracles.py bit for bit, errors included."""

    @staticmethod
    def check(content: bytes, schema):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gen.csv"
            path.write_bytes(content)
            assert outcome(load_dataset, path, schema) == outcome(oracles.load_dataset, path, schema)

    @pytest.mark.parametrize("text, schema", LISTED_FILES.values(), ids=LISTED_FILES)
    def test_listed_file(self, text, schema):
        self.check(text.encode(), schema)

    @settings(max_examples=300, deadline=None)
    @given(case=csv_files())
    def test_generated_file(self, case):
        self.check(*case)


class TestDatasetInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            make_dataset(np.empty((0, 2)), [], [])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            make_dataset([[1.0]], [3], [10.0])

    def test_rejects_nonpositive_clv(self):
        with pytest.raises(ValueError, match="clv"):
            make_dataset([[1.0]], [0], [0.0])

    def test_rejects_infinite_clv(self):
        with pytest.raises(ValueError, match="clv must be finite.*row 2"):
            make_dataset([[1.0], [2.0]], [0, 1], [10.0, np.inf])

    def test_immutable_arrays(self):
        ds = make_dataset([[1.0], [2.0]], [0, 1], [5.0, 6.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0


class TestStandardize:
    def test_hand_arithmetic(self):
        train = make_dataset([[1.0], [3.0]], [0, 1], [10.0, 20.0])
        test = make_dataset([[5.0]], [1], [30.0])
        train_s, test_s = standardize(train, test)
        assert train_s.features[:, 0].tolist() == [-1.0, 1.0]  # mean 2, std 1
        assert test_s.features[0, 0] == 3.0

    def test_train_moments(self):
        rng = np.random.default_rng(1)
        train = make_dataset(
            rng.normal(3, 7, size=(50, 3)), rng.integers(0, 2, 50), rng.uniform(1, 9, 50)
        )
        train_s, _ = standardize(train, train)
        assert np.all(np.abs(train_s.features.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(train_s.features.std(axis=0) - 1) < 1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        train = make_dataset(
            rng.normal(size=(30, 2)), rng.integers(0, 2, 30), rng.uniform(1, 9, 30)
        )
        once, _ = standardize(train, train)
        twice, _ = standardize(once, once)
        assert np.all(np.abs(twice.features - once.features) < 1e-9)

    def test_zero_variance_warns_and_zeroes(self):
        train = make_dataset([[7.0, 1.0], [7.0, 3.0]], [0, 1], [5.0, 6.0])
        with pytest.warns(UserWarning, match="zero-variance"):
            train_s, _ = standardize(train, train)
        assert np.all(train_s.features[:, 0] == 0.0)

    def test_labels_and_clvs_untouched(self):
        train = make_dataset([[1.0], [3.0]], [0, 1], [10.0, 20.0])
        train_s, _ = standardize(train, train)
        assert np.array_equal(train_s.labels, train.labels)
        assert np.array_equal(train_s.clvs, train.clvs)


    @pytest.mark.parametrize("column", [[1e308, -1e308, 1e308], [1e308, 1e308, 1e308]])
    def test_overflow_names_the_column(self, column):
        # column f2's std overflows in one case, its mean in the other
        train = make_dataset([[0.0, 1.0]] * 3, [0, 1, 0], [5.0, 6.0, 7.0])
        wide = make_dataset(np.column_stack([[1.0, 2.0, 3.0], column]), [0, 1, 0], [5.0, 6.0, 7.0])
        with pytest.raises(ValueError, match="'f2'"):
            standardize(wide, train)

    def test_test_split_overflow_names_the_column(self):
        train = make_dataset([[0.0, 1.0], [1e-150, 2.0]], [0, 1], [5.0, 6.0])
        with pytest.raises(ValueError, match="'f1'"):
            standardize(train, make_dataset([[1e308, 1.0]], [0], [5.0]))


def segment_labels(segments, n):
    out = np.full(n, -1)
    for s, rows in enumerate(segments):
        out[rows] = s
    return out


class TestSegmentation:
    def test_single_segment(self):
        segments = quantile_segments([10.0, 20.0, 30.0, 40.0], 1)
        assert [seg.tolist() for seg in segments] == [[0, 1, 2, 3]]

    def test_two_even_segments(self):
        segments = quantile_segments([30.0, 10.0, 40.0, 20.0], 2)
        # {10, 20} -> segment 0, {30, 40} -> segment 1
        assert [seg.tolist() for seg in segments] == [[1, 3], [0, 2]]

    def test_odd_split_is_documented_rule(self):
        # lower-CLV segments take the extra record: sizes (3, 2)
        segments = quantile_segments([50.0, 40.0, 30.0, 20.0, 10.0], 2)
        assert [seg.tolist() for seg in segments] == [[2, 3, 4], [0, 1]]

    def test_tie_break_by_index(self):
        segments = quantile_segments([5.0, 5.0, 5.0, 5.0], 2)
        assert [seg.tolist() for seg in segments] == [[0, 1], [2, 3]]

    def test_q_out_of_range(self):
        for q in (0, 4):
            with pytest.raises(ValueError, match="q must be"):
                quantile_segments([1.0, 2.0, 3.0], q)

    def test_partition_property(self):
        # every (n, q) yields a partition into near-equal contiguous chunks
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            q = int(rng.integers(1, n + 1))
            clvs = rng.uniform(1, 100, size=n)
            segments = quantile_segments(clvs, q)
            sizes = np.array([len(seg) for seg in segments])
            assert len(segments) == q and sizes.sum() == n
            assert sizes.max() - sizes.min() <= 1
            segment_of = segment_labels(segments, n)
            assert segment_of.min() == 0  # every row in some segment
            order = np.argsort(clvs, kind="stable")
            assert np.all(np.diff(segment_of[order]) >= 0)  # contiguous in CLV order

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        clvs = rng.uniform(1, 100, size=37)
        a = quantile_segments(clvs, 5)
        b = quantile_segments(clvs, 5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_edges_carry_segments_to_new_clvs(self):
        clvs = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        edges = np.array([clvs[rows].max() for rows in quantile_segments(clvs, 3)[:-1]])
        assert edges.tolist() == [20.0, 40.0]
        assert assign_segments([15.0, 20.0, 25.0, 40.0, 41.0, 999.0], edges).tolist() == [
            0, 0, 1, 1, 2, 2,
        ]
