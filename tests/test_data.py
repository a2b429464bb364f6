"""Dataset loading, validation, standardization, and CLV segmentation."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt.data import (
    Dataset,
    assign_segments,
    load_dataset,
    quantile_segments,
    save_dataset,
    standardize,
)


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
            try:
                ds = load_dataset(path)
            except ValueError as exc:
                assert "fuzz.csv" in str(exc)
            else:
                assert isinstance(ds, Dataset)


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
