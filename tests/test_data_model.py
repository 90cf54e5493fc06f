"""Dataset construction, CSV round trips, and encoding behavior."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from araf.data import (
    Column,
    ColumnKind,
    Dataset,
    Schema,
    binary_dataset,
    load_csv,
    open_output,
    write_csv,
)
from araf.errors import DataError, UsageError
from araf.features import FeatureMode, transform
from araf.mining import MiningConfig, count_singletons, mine_frequent, mine_with_thresholds
from reference import decode_cell, values_equal


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = "a,b,y\nred,1.5,yes\nblue,2.0,no\nred,0.5,yes\n"


class TestLoadCsv:
    def test_kinds_inferred(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y")
        assert ds.n == 3 and ds.p == 2
        assert ds.schema.features[0].kind is ColumnKind.CATEGORICAL
        assert ds.schema.features[1].kind is ColumnKind.CONTINUOUS

    def test_first_appearance_encoding(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y")
        # categories keep the order in which values first appear
        assert ds.schema.features[0].categories == ("red", "blue")
        assert list(ds.columns[0]) == [0, 1, 0]
        assert ds.schema.classes == ("yes", "no")
        assert list(ds.labels) == [0, 1, 0]

    def test_label_anywhere_in_header(self, tmp_path):
        ds = load_csv(write(tmp_path, "y,a\nno,u\nyes,v\n"), "y")
        assert ds.schema.feature_names() == ["a"]
        assert list(ds.labels) == [0, 1]

    def test_declared_kind_overrides_inference(self, tmp_path):
        text = "a,y\n1,x\n2,x\n1,z\n"
        ds = load_csv(write(tmp_path, text), "y", {"a": ColumnKind.CATEGORICAL})
        assert ds.schema.features[0].kind is ColumnKind.CATEGORICAL
        assert ds.schema.features[0].categories == ("1", "2")

    def test_declared_continuous_on_text_fails(self, tmp_path):
        with pytest.raises(DataError, match="^column 'a' declared continuous but cell 'foo' is not a number$"):
            load_csv(write(tmp_path, "a,y\nfoo,x\n"), "y", {"a": ColumnKind.CONTINUOUS})

    def test_declared_unknown_column_fails(self, tmp_path):
        with pytest.raises(UsageError):
            load_csv(write(tmp_path, BASIC), "y", {"nope": ColumnKind.CATEGORICAL})

    def test_declared_kind_must_be_a_column_kind(self, tmp_path):
        with pytest.raises(UsageError, match="^unknown column kind 'continuous'$"):
            load_csv(write(tmp_path, BASIC), "y", {"b": "continuous"})

    def test_unknown_label(self, tmp_path):
        with pytest.raises(DataError, match=r"^label column 'label' not in header \['a', 'b', 'y'\]$"):
            load_csv(write(tmp_path, BASIC), "label")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="' has no header row$"):
            load_csv(write(tmp_path, ""), "y")

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="' has a header but no data rows$"):
            load_csv(write(tmp_path, "a,y\n"), "y")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DataError, match="^row 3 has 2 cells, header has 3$"):
            load_csv(write(tmp_path, "a,b,y\n1,2,x\n1,x\n"), "y")

    def test_missing_cell(self, tmp_path):
        with pytest.raises(DataError, match="^row 2 has an empty cell$"):
            load_csv(write(tmp_path, "a,y\n,x\n"), "y")

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(write(tmp_path, "a,a,y\n1,2,x\n"), "y")

    @pytest.mark.parametrize(
        "cell, value",
        [
            (" 1.5", 1.5),  # float() strips surrounding blanks
            ("1_000", 1000.0),  # and accepts digit separators
            ("nan", None),  # parses, but a continuous column must be finite
            ("inf", None),
            ("1e400", None),  # overflows to inf
        ],
    )
    def test_kind_follows_python_float(self, tmp_path, cell, value):
        path = write(tmp_path, "a,y\n2.5,x\n%s,z\n" % cell)
        ds = load_csv(path, "y")
        if value is None:
            assert ds.schema.features[0].kind is ColumnKind.CATEGORICAL
            assert ds.schema.features[0].categories == ("2.5", cell)
            message = "^column 'a' declared continuous but cell %r is not a number$" % cell
            with pytest.raises(DataError, match=message):
                load_csv(path, "y", {"a": ColumnKind.CONTINUOUS})
        else:
            assert ds.schema.features[0].kind is ColumnKind.CONTINUOUS
            assert list(ds.columns[0]) == [2.5, value]

    def test_declared_continuous_names_first_bad_cell(self, tmp_path):
        path = write(tmp_path, "a,y\n1,x\ninf,x\nfoo,x\n")
        with pytest.raises(DataError, match="^column 'a' declared continuous but cell 'inf' is not a number$"):
            load_csv(path, "y", {"a": ColumnKind.CONTINUOUS})

    def test_first_bad_row_is_reported(self, tmp_path):
        with pytest.raises(DataError, match="^row 3 has an empty cell$"):
            load_csv(write(tmp_path, "a,y\n1,x\n1,\n1,x,2\n"), "y")
        with pytest.raises(DataError, match="^row 3 has 3 cells, header has 2$"):
            load_csv(write(tmp_path, "a,y\n1,x\n1,x,2\n,x\n"), "y")


def write_csv_file(ds, path):
    with open_output(path) as fh:
        write_csv(ds, fh)


class TestRoundTrip:
    def test_write_then_load_preserves_values(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y")
        out = str(tmp_path / "out.csv")
        write_csv_file(ds, out)
        ds2 = load_csv(out, "y")
        assert values_equal(ds, ds2)
        assert ds2.schema.feature_names() == ds.schema.feature_names()


def reference_write_csv(ds, path):
    """Row-by-row writer through decode_cell, the reference for write_csv's bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema.features] + [ds.schema.label_name])
        for i in range(ds.n):
            row = [decode_cell(ds, i, j) for j in range(ds.p)]
            writer.writerow(row + [ds.schema.classes[ds.labels[i]]])


CELL_TEXT = st.text(alphabet='ab ,"\n.-1e5_\u00e9', min_size=1, max_size=6)
CELL_REAL = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def csv_tables(draw):
    """Header plus rows of text cells, real cells, or a mix, per column."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    kinds = [draw(st.sampled_from([CELL_TEXT, CELL_REAL, CELL_TEXT | CELL_REAL])) for _ in range(p)]
    rows = [[draw(kind) for kind in kinds] + [draw(st.sampled_from("xyz"))] for _ in range(n)]
    return ["c%d" % j for j in range(p)] + ["y"], rows


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(csv_tables())
    def test_load_write_load_is_byte_stable(self, tmp_path_factory, table):
        header, rows = table
        tmp = tmp_path_factory.mktemp("rt")
        src = tmp / "src.csv"
        with open(src, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        ds = load_csv(str(src), "y")
        write_csv_file(ds, str(tmp / "a.csv"))
        reference_write_csv(ds, str(tmp / "ref.csv"))
        again = load_csv(str(tmp / "a.csv"), "y")
        write_csv_file(again, str(tmp / "b.csv"))
        first = (tmp / "a.csv").read_bytes()
        assert first == (tmp / "ref.csv").read_bytes()
        assert first == (tmp / "b.csv").read_bytes()
        assert values_equal(again, ds)
        assert again.schema == ds.schema


class TestDatasetInvariants:
    def test_class_counts(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y")
        assert list(ds.class_counts()) == [2, 1]

    def test_length_mismatch_rejected(self):
        schema = Schema(
            (Column("a", ColumnKind.CATEGORICAL, ("0", "1")),), "y", ("x",)
        )
        with pytest.raises(DataError):
            Dataset(schema, (np.zeros(3, dtype=np.int64),), np.zeros(2, dtype=np.int64))

    def test_out_of_range_code_rejected(self):
        schema = Schema(
            (Column("a", ColumnKind.CATEGORICAL, ("0", "1")),), "y", ("x",)
        )
        with pytest.raises(DataError):
            Dataset(
                schema,
                (np.array([0, 2], dtype=np.int64),),
                np.zeros(2, dtype=np.int64),
            )

    def test_decode_cell(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y")
        assert decode_cell(ds, 1, 0) == "blue"


def one_hot(ds):
    return transform(ds, [], FeatureMode.APPEND_INTERACTIONS_TO_ONE_HOT)


class TestOneHot:
    def test_columns_and_names(self):
        ds = binary_dataset(
            np.array([[0, 1], [1, 0]]), np.array([0, 1]), class_names=("a", "b")
        )
        mat, names = one_hot(ds)
        assert names == ["X1=0", "X1=1", "X2=0", "X2=1"]
        assert mat.tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]
        # exactly one indicator fires per original column
        assert (mat.sum(axis=1) == ds.p).all()

    def test_continuous_rejected(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), "y")
        with pytest.raises(DataError, match="^column 'b' is continuous; discretize before transform$"):
            one_hot(ds)


@pytest.mark.parametrize(
    "operation, call",
    [
        ("mining", count_singletons),
        ("mining", lambda ds: mine_frequent(ds, MiningConfig(4, 2))),
        ("mining", lambda ds: mine_with_thresholds(ds, 0.5)),
        ("taking the categorical matrix", Dataset.categorical_matrix),
        ("transform", lambda ds: transform(ds, [], FeatureMode.APPEND_TO_LABEL_ENCODED)),
    ],
    ids=["count_singletons", "mine_frequent", "mine_with_thresholds", "categorical_matrix",
         "transform"],
)
def test_continuous_column_is_named_with_the_operation(operation, call, tmp_path):
    ds = load_csv(write(tmp_path, BASIC), "y")  # b is continuous
    with pytest.raises(DataError, match="^column 'b' is continuous; discretize before ") as info:
        call(ds)
    assert str(info.value) == "column 'b' is continuous; discretize before %s" % operation


class TestBinaryDataset:
    def test_constant_column_keeps_both_categories(self):
        ds = binary_dataset(np.ones((4, 2), dtype=int), np.zeros(4, dtype=int))
        assert ds.schema.features[0].categories == ("0", "1")
        assert list(ds.columns[0]) == [1, 1, 1, 1]

    def test_default_names(self):
        ds = binary_dataset(np.zeros((2, 3), dtype=int), np.zeros(2, dtype=int))
        assert ds.schema.feature_names() == ["X1", "X2", "X3"]
        assert ds.schema.label_name == "Y"
