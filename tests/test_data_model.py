"""Dataset construction, CSV round trips, and encoding behavior."""

import csv
import io
import os
import pickle
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from araf import data
from araf.data import (
    Column,
    ColumnKind,
    Dataset,
    Schema,
    binary_dataset,
    load_csv,
    _encode,
    open_output,
    write_csv,
)
from araf.errors import DataError, UsageError
from araf.features import FeatureMode, transform
from araf.mining import MiningConfig, Scoring, count_pairs, count_singletons, mine_frequent, mine_with_thresholds
from araf.sampling import subsample
from reference import decode_cell, encode_by_setdefault, reference_load_csv, reference_write_csv, values_equal


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
        # Schema refuses each name held twice, a second label column's too
        with pytest.raises(DataError, match="^'a' is named twice among the columns$"):
            load_csv(write(tmp_path, "a,a,y\n1,2,x\n"), "y")
        with pytest.raises(DataError, match="^'y' is named twice among the columns$"):
            load_csv(write(tmp_path, "y,a,y\nx,1,z\n"), "y")

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

    @pytest.mark.parametrize("text", ["y,a\nyes,u\nno,v\n", "a,y\nu,yes\nv,no\n"],
                             ids=["label-first", "feature-first"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds = load_csv(str(path), "y")
        assert (ds.schema.feature_names(), ds.schema.label_name) == (["a"], "y")
        assert values_equal(ds, load_csv(write(tmp_path, text), "y"))

    def test_byte_order_mark_inside_a_cell_is_kept(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("a,y\n\ufeffu,yes\n".encode())
        ds = load_csv(str(path), "y")
        assert ds.schema.features[0].categories == ("\ufeffu",)

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
    @given(csv_tables(), st.sampled_from([1, 2, 5]))
    def test_load_write_load_is_byte_stable(self, tmp_path_factory, table, block_rows):
        # tables of 1-12 rows written a few rows at a time span several blocks
        header, rows = table
        tmp = tmp_path_factory.mktemp("rt")
        src = tmp / "src.csv"
        with open(src, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        ds = load_csv(str(src), "y")
        with mock.patch.object(data, "BLOCK_ROWS", block_rows):
            write_csv_file(ds, str(tmp / "a.csv"))
            with open(tmp / "ref.csv", "w", newline="", encoding="utf-8") as fh:
                reference_write_csv(ds, fh)
            again = load_csv(str(tmp / "a.csv"), "y")
            write_csv_file(again, str(tmp / "b.csv"))
        first = (tmp / "a.csv").read_bytes()
        assert first == (tmp / "ref.csv").read_bytes()
        assert first == (tmp / "b.csv").read_bytes()
        assert values_equal(again, ds)
        assert again.schema == ds.schema


FIELD_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "\u00e9", "\u4e2d"], max_size=4)
"""Texts csv.writer quotes (a comma, a quote, CR, LF), pads with spaces, leaves empty or not ASCII."""


@st.composite
def written_tables(draw):
    """A Dataset made from its parts, so its names, categories and classes may be any FIELD_TEXT.

    0-3 feature columns, each categorical or continuous (any float, nan and
    inf included), and 0-9 rows."""
    p = draw(st.integers(0, 3))
    n = draw(st.integers(0, 9))
    names = draw(st.lists(FIELD_TEXT, min_size=p + 1, max_size=p + 1, unique=True))
    classes = draw(st.lists(FIELD_TEXT, min_size=1, max_size=3, unique=True))
    specs, columns = [], []
    for name in names[:p]:
        if draw(st.booleans()):
            categories = draw(st.lists(FIELD_TEXT, min_size=1, max_size=4, unique=True))
            specs.append(Column(name, ColumnKind.CATEGORICAL, tuple(categories)))
            ids = st.integers(0, len(categories) - 1)
            columns.append(np.array(draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64))
        else:
            specs.append(Column(name, ColumnKind.CONTINUOUS))
            columns.append(np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=np.float64))
    labels = draw(st.lists(st.integers(0, len(classes) - 1), min_size=n, max_size=n))
    schema = Schema(tuple(specs), names[p], tuple(classes))
    return Dataset(schema, tuple(columns), np.array(labels, dtype=np.int64))


def text_table(columns, label, classes, labels):
    """A categorical Dataset from (name, categories, ids) columns."""
    specs = tuple(Column(name, ColumnKind.CATEGORICAL, tuple(categories)) for name, categories, _ in columns)
    ids = tuple(np.array(col, dtype=np.int64) for _, _, col in columns)
    return Dataset(Schema(specs, label, tuple(classes)), ids, np.array(labels, dtype=np.int64))


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(written_tables(), st.integers(1, 3))
    # a label-only table: csv.writer quotes a lone empty field, and a lone empty name
    @example(text_table([], "", ["", "a"], [0, 1, 0]), 2)
    # an empty field in a wider row is left bare
    @example(text_table([("", ["", " a "], [0, 1, 0])], "y", ["", '"'], [0, 0, 1]), 1)
    def test_bytes_equal_a_csv_writer_over_every_row(self, ds, block_rows):
        got = io.StringIO(newline="")
        with mock.patch.object(data, "BLOCK_ROWS", block_rows):
            write_csv(ds, got)
        want = io.StringIO(newline="")
        reference_write_csv(ds, want)
        assert got.getvalue() == want.getvalue()


class TestEncode:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=3) | st.sampled_from(["a", "b", "1", "1.0", " a"]), max_size=60),
           st.integers(1, 7))
    def test_matches_the_setdefault_comprehension(self, cells, block):
        # encoded a block at a time into one running dict, as load_csv does
        ids = {}
        blocks = [_encode(cells[i:i + block], ids) for i in range(0, len(cells), block)]
        want_codes, want_categories = encode_by_setdefault(cells)
        assert all(codes.dtype == np.int32 for codes in blocks)
        assert [c for codes in blocks for c in codes.tolist()] == want_codes.tolist()
        assert tuple(ids) == want_categories


NUMBER_CELLS = CELL_REAL | st.sampled_from(["0.1230", "1_000", " 1.5", "-0", "1e5"])
FLIP_CELLS = st.sampled_from(["nan", "inf", "1e400", "x", "0.1230x", "\u00e9"])


@st.composite
def block_edge_files(draw):
    """A CSV's text and declared kinds, its columns turning categorical at drawn rows.

    Each feature column holds number cells up to a drawn row, a cell that
    does not parse as a finite number there, and any cells after it; a row
    may lose or gain a cell or have one emptied, and the text may start with
    a byte-order mark.
    """
    p = draw(st.integers(1, 3))
    n = draw(st.integers(0, 9))
    columns = []
    for _ in range(p):
        flip = draw(st.integers(0, n))
        cells = [draw(NUMBER_CELLS if i < flip else FLIP_CELLS | NUMBER_CELLS) for i in range(n)]
        if flip < n:
            cells[flip] = draw(FLIP_CELLS)
        columns.append(cells)
    label = draw(st.integers(0, p))
    header = ["c%d" % j for j in range(p)]
    header.insert(label, "y")
    rows = [[col[i] for col in columns] for i in range(n)]
    for row in rows:
        row.insert(label, draw(st.sampled_from("xyz")))
    if n and draw(st.booleans()):
        row = rows[draw(st.integers(0, n - 1))]
        fault = draw(st.sampled_from(["short", "long", "empty"]))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("1")
        else:
            row[draw(st.integers(0, len(row) - 1))] = ""
    text = io.StringIO()
    csv.writer(text).writerows([header] + rows)
    kinds = st.sampled_from([None, ColumnKind.CATEGORICAL, ColumnKind.CONTINUOUS])
    declared = {name: kind for name in header if name != "y" and (kind := draw(kinds)) is not None}
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + text.getvalue(), declared


def loaded(load, path, declared):
    """The table load gives, or the type and message of what it raises."""
    try:
        return load(path, "y", declared)
    except (DataError, UsageError) as exc:
        return type(exc), str(exc)


class TestBlockReader:
    @settings(max_examples=300, deadline=None)
    @given(block_edge_files(), st.integers(1, 3))
    # a flip in the third block: the cells of the first two are read again as typed
    @example(("a,y\n0.1230,x\n1e1,x\n0.123,x\n-0,x\nfoo,x\n10,x\n", {}), 2)
    def test_agrees_with_the_whole_file_reader(self, tmp_path_factory, file, block_rows):
        text, declared = file
        path = tmp_path_factory.mktemp("blocks") / "d.csv"
        path.write_text(text, encoding="utf-8")
        want = loaded(reference_load_csv, str(path), declared)
        with mock.patch.object(data, "BLOCK_ROWS", block_rows):
            got = loaded(load_csv, str(path), declared)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, Dataset)
        assert got.schema == want.schema
        for a, b in zip(got.columns + (got.labels,), want.columns + (want.labels,)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    # with 2-row blocks, a turns categorical in the third block after non-canonical
    # numbers, b in the second, c in the first and d never
    LATE = "a,b,c,d,y\n0.1230,1,p,1,x\n1e1,2,q,2,z\n0.123,?,r,3,x\n-0,2,p,4,x\nfoo,1.0,s,5,z\n10,3,q,6,x\n"

    def assert_same_table(self, got, want):
        assert got.schema == want.schema
        for a, b in zip(got.columns + (got.labels,), want.columns + (want.labels,)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_columns_turning_late_cost_one_more_pass(self, tmp_path, monkeypatch):
        path = write(tmp_path, self.LATE)
        monkeypatch.setattr(data, "BLOCK_ROWS", 2)
        opened = []
        real = data.open_csv
        monkeypatch.setattr(data, "open_csv", lambda path: opened.append(path) or real(path))
        ds = load_csv(path, "y")
        assert opened == [path, path]
        self.assert_same_table(ds, reference_load_csv(path, "y"))

    def test_a_pipe_is_read_once(self, tmp_path, monkeypatch):
        # a pipe cannot be read again, so the text of its numeric columns is held;
        # a second open would wait for a writer, so the load runs in a thread
        fifo = tmp_path / "d.csv"
        os.mkfifo(fifo)
        monkeypatch.setattr(data, "BLOCK_ROWS", 2)
        got = []
        loader = threading.Thread(target=lambda: got.append(loaded(load_csv, str(fifo), {})), daemon=True)
        loader.start()
        fifo.write_text(self.LATE)
        loader.join(timeout=30)
        assert not loader.is_alive(), "the pipe was opened again"
        self.assert_same_table(got[0], reference_load_csv(write(tmp_path, self.LATE, "plain.csv"), "y"))

    def test_memory_stays_near_the_table(self, tmp_path):
        # 20,000 x 10 categorical cells: a reader that holds every cell as a
        # str peaks at about 74 bytes a cell
        n, p = 20_000, 10
        rng = np.random.default_rng(0)
        path = tmp_path / "tall.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["c%d" % j for j in range(p)] + ["y"])
            writer.writerows([["v%d" % v for v in row] + ["ab"[row[0] % 2]]
                              for row in rng.integers(0, 6, size=(n, p)).tolist()])
        cells = n * (p + 1)
        # int32 ids per cell until they are joined into one byte each, and one
        # block's text held at a time, at most 256 bytes a cell with its row
        # list and transposed tuple
        bound = 5 * cells + 256 * data.BLOCK_ROWS * (p + 1) + (1 << 18)
        tracemalloc.start()
        try:
            ds = load_csv(str(path), "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ds.n, ds.p) == (n, p)
        assert peak < bound, (peak, bound)


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

    def test_fractional_category_ids_rejected(self):
        schema = Schema((Column("a", ColumnKind.CATEGORICAL, ("0", "1")),), "y", ("x",))
        with pytest.raises(DataError, match="^category ids in column 'a' have dtype float64, not an integer dtype$"):
            Dataset(schema, (np.array([0.0, 0.5]),), np.zeros(2, dtype=np.int64))

    def test_fractional_labels_rejected(self):
        schema = Schema((Column("a", ColumnKind.CATEGORICAL, ("0", "1")),), "y", ("x", "z"))
        with pytest.raises(DataError, match="^label ids have dtype float64, not an integer dtype$"):
            Dataset(schema, (np.zeros(2, dtype=np.int64),), np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "features, label, classes, message",
        [
            ([("a", ("0", "1", "0"))], "y", ("x",), "'0' is named twice among the categories of column 'a'"),
            ([("a", ("0",)), ("a", ("1",))], "y", ("x",), "'a' is named twice among the columns"),
            ([("a", ("0",))], "y", ("x", "z", "x"), "'x' is named twice among the classes"),
            ([("a", ("0",)), ("y", ("1",))], "y", ("x",), "'y' is named twice among the columns"),
        ],
        ids=["category", "feature", "class", "feature-named-like-the-label"],
    )
    def test_a_name_given_twice_is_refused(self, features, label, classes, message):
        # a rule, a binned file or transform names each by its string, which must stand for one id
        columns = tuple(Column(name, ColumnKind.CATEGORICAL, categories) for name, categories in features)
        with pytest.raises(DataError, match="^%s$" % re.escape(message)):
            Schema(columns, label, classes)


def id_dataset(num_categories, ids, labels, num_classes=2):
    """One categorical column over num_categories categories plus a continuous one."""
    schema = Schema(
        (
            Column("a", ColumnKind.CATEGORICAL, tuple(str(c) for c in range(num_categories))),
            Column("b", ColumnKind.CONTINUOUS),
        ),
        "y",
        tuple(str(c) for c in range(num_classes)),
    )
    return Dataset(schema, (ids, np.linspace(0.0, 1.0, len(ids))), labels)


class TestIdDtype:
    @pytest.mark.parametrize(
        "num_categories, dtype",
        [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
         (65_537, np.uint32)],
    )
    def test_narrowest_unsigned_dtype_by_category_count(self, num_categories, dtype):
        ids = np.array([0, num_categories - 1], dtype=np.int64)
        ds = id_dataset(num_categories, ids, np.array([0, 1]))
        assert ds.columns[0].dtype == dtype
        assert ds.columns[0].tolist() == ids.tolist()
        assert ds.columns[1].dtype == np.float64

    @pytest.mark.parametrize("num_classes, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_labels_narrowed_by_class_count(self, num_classes, dtype):
        labels = np.array([0, num_classes - 1], dtype=np.int64)
        ds = id_dataset(2, np.array([0, 1]), labels, num_classes)
        assert ds.labels.dtype == dtype
        assert ds.labels.tolist() == labels.tolist()

    def test_boolean_ids_accepted(self):
        ds = id_dataset(2, np.array([True, False, True]), np.array([False, True, True]))
        assert ds.columns[0].tolist() == [1, 0, 1]
        assert ds.labels.tolist() == [0, 1, 1]

    def test_narrow_arrays_held_without_a_copy(self):
        ids = np.array([0, 3, 2, 3], dtype=np.uint8)
        labels = np.array([1, 0, 1, 1], dtype=np.uint8)
        ds = id_dataset(4, ids, labels)
        assert np.shares_memory(ds.columns[0], ids)
        assert np.shares_memory(ds.labels, labels)

    def test_id_columns_and_labels_are_held_read_only(self):
        ids = np.array([0, 3, 2, 3], dtype=np.uint8)
        labels = np.array([1, 0, 1, 1], dtype=np.int64)
        ds = id_dataset(4, ids, labels)
        with pytest.raises(ValueError, match="read-only"):
            ds.columns[0][0] = 1
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 0
        # the caller's own arrays stay writable, also the one held without a copy
        ids[0] = 1
        labels[0] = 0
        assert ds.columns[0][0] == 1 and ds.labels.tolist() == [1, 0, 1, 1]

    def test_a_pickled_table_is_rebuilt_from_its_arrays(self):
        ds = id_dataset(4, np.array([0, 3, 2, 3]), np.array([1, 0, 1, 1]))
        count_pairs(ds, [(0, 3), (3, 3)])
        copy = pickle.loads(pickle.dumps(ds))
        assert copy.schema == ds.schema and copy.class_counts().tolist() == ds.class_counts().tolist()
        assert [c.tolist() for c in copy.columns] == [c.tolist() for c in ds.columns]
        assert copy.columns[0].dtype == np.uint8 and not copy.labels.flags.writeable
        assert count_pairs(copy, [(0, 3), (3, 3)]).tolist() == count_pairs(ds, [(0, 3), (3, 3)]).tolist()

    def test_class_counts_are_a_bincount(self):
        rng = np.random.default_rng(5)
        ds = id_dataset(3, rng.integers(0, 3, 500).astype(np.uint8), rng.integers(0, 4, 500).astype(np.uint8), 5)
        assert ds.class_counts().tolist() == np.bincount(ds.labels, minlength=5).tolist()
        assert ds.class_counts().tolist()[4] == 0
        drawn = subsample(ds, 77, seed=3)
        assert drawn.labels.dtype == np.uint8
        assert drawn.class_counts().tolist() == np.bincount(drawn.labels, minlength=5).tolist()
        assert drawn.class_counts().sum() == 77

    def test_ids_of_any_integer_dtype_give_identical_results(self):
        rng = np.random.default_rng(11)
        sizes, n, num_classes = (3, 4, 2, 5), 300, 3
        ids = [rng.integers(0, k, n) for k in sizes]
        labels = rng.integers(0, num_classes, n)
        schema = Schema(
            tuple(Column("X%d" % j, ColumnKind.CATEGORICAL, tuple("c%d" % c for c in range(k)))
                  for j, k in enumerate(sizes)),
            "Y",
            tuple("k%d" % c for c in range(num_classes)),
        )
        config = MiningConfig(18, 6, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE)
        outputs = []
        for dtype in (np.int64, np.int32, np.uint8):
            ds = Dataset(schema, tuple(col.astype(dtype) for col in ids), labels.astype(dtype))
            result = mine_frequent(ds, config)
            antecedents = [its.antecedent for its in result.all_itemsets()]
            text = io.StringIO(newline="")
            write_csv(ds, text)
            outputs.append((
                result.rows.tolist(), result.counts.tolist(), result.ranks.tolist(),
                result.class_totals.tolist(),
                *(transform(ds, antecedents, mode)[0].tolist() for mode in FeatureMode),
                text.getvalue(),
            ))
        assert outputs[0] == outputs[1] == outputs[2]


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
