"""Tabular dataset model: schema and CSV loading.

A dataset is a dense table of p feature columns plus one label column.
Categorical cells are stored as integer category ids; the id of a category
is its first-appearance position in file order, so ids are reproducible
from the file alone. Each id column is held in the narrowest unsigned
dtype that fits its largest possible id: one byte per cell up to 256
categories, two up to 65,536. Continuous cells are stored as float64.
Labels are always treated as categorical, stored the same way by class
count, and their per-class totals are counted once when the table is built.
A table also carries an empty item_bits dict, in which mining builds and
keeps the bit sets it counts with.

CSV handling follows the usual quoting conventions (header row required,
UTF-8, a leading byte-order mark dropped). Rows with missing cells are
rejected at load time rather than imputed; column kinds are inferred (a
column is continuous iff every cell parses as a finite number) unless the
caller declares them. Input is read, and output written, in blocks of
BLOCK_ROWS rows, so no more than one block's cells are held as text. The
columns that turn categorical after the first block are read again from the
file in one more pass, since a parsed float does not give back the text it
was read from; input that is not a regular file, such as a pipe, has the
text of its still-numeric columns held instead.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError


class ColumnKind(enum.Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Column:
    """One feature column: name, kind, and (for categorical) its categories.

    categories is ordered by first appearance in the source; a cell's id is
    its index into this tuple. Continuous columns keep an empty tuple.
    """

    name: str
    kind: ColumnKind
    categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class Schema:
    """Feature columns in file order plus the label column's name and classes."""

    features: tuple[Column, ...]
    label_name: str
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        # rules, binned files and transform name a column, category or class
        # by its string, so each string must stand for one of them
        named = [("the columns", [col.name for col in self.features] + [self.label_name])]
        named += [("the classes", self.classes)]
        named += [("the categories of column %r" % col.name, col.categories) for col in self.features]
        for where, names in named:
            if len(set(names)) < len(names):
                ordered = sorted(names)
                repeated = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
                raise DataError("%r is named twice among %s" % (repeated, where))

    @property
    def p(self) -> int:
        return len(self.features)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def feature_index(self, name: str) -> int:
        for j, col in enumerate(self.features):
            if col.name == name:
                return j
        raise KeyError(name)

    def feature_names(self) -> list[str]:
        return [col.name for col in self.features]

    def require_categorical(self, operation: str) -> None:
        """Raise DataError naming the first continuous column and operation."""
        for col in self.features:
            if col.kind is ColumnKind.CONTINUOUS:
                raise DataError(
                    "column %r is continuous; discretize before %s" % (col.name, operation)
                )


@dataclass(frozen=True)
class Dataset:
    """Immutable table: one numpy column per feature plus a label vector.

    Categorical columns and the labels hold integer ids, each narrowed at
    construction to the smallest unsigned dtype that holds its largest
    possible id (uint8 for up to 256 categories or classes); an array that
    is already that narrow is held without a copy, through a read-only view.
    Arrays passed in must not be changed afterwards: the per-class label
    totals, counted once here and returned by class_counts, and the item
    bit sets that mining builds and keeps in the item_bits dict are read
    from them.
    Continuous columns are float64 arrays. All columns and the label vector
    share length n.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]
    labels: np.ndarray
    _class_counts: np.ndarray = field(init=False, repr=False, compare=False)
    item_bits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.columns) != self.schema.p:
            raise DataError("column count does not match schema")
        columns = []
        for col, spec in zip(self.columns, self.schema.features):
            if len(col) != n:
                raise DataError("column %r length differs from label length" % spec.name)
            if spec.kind is ColumnKind.CATEGORICAL:
                col = _narrow_ids(col, len(spec.categories), "category ids in column %r" % spec.name)
            columns.append(col)
        labels = _narrow_ids(self.labels, self.schema.num_classes, "label ids")
        # counted on the ids as given: a narrow vector would be widened to intp first
        counts = np.bincount(self.labels, minlength=self.schema.num_classes)
        counts.setflags(write=False)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_class_counts", counts)

    def __reduce__(self):
        # a copy is made anew from its arrays and holds no bit sets
        return Dataset, (self.schema, self.columns, self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def p(self) -> int:
        return self.schema.p

    @property
    def num_classes(self) -> int:
        return self.schema.num_classes

    def categorical_matrix(self) -> np.ndarray:
        """Return the n x p matrix of category ids.

        Raises DataError when any feature is continuous; callers
        that need this view should discretize first.
        """
        self.schema.require_categorical("taking the categorical matrix")
        if self.p == 0:
            return np.empty((self.n, 0), dtype=np.int64)
        return np.column_stack([col.astype(np.int64, copy=False) for col in self.columns])

    def class_counts(self) -> np.ndarray:
        """Rows per class id, as counted at construction (read-only)."""
        return self._class_counts


def _narrow_ids(ids: np.ndarray, size: int, name: str) -> np.ndarray:
    """ids checked to lie in [0, size), as a read-only view in the narrowest unsigned dtype for size - 1.

    Raises DataError, naming the ids as name, when their dtype is not
    boolean or integer, so that no fraction is truncated into an id, or
    when an id lies outside the range. The caller's array stays writable.
    """
    if ids.dtype.kind not in "biu":
        raise DataError("%s have dtype %s, not an integer dtype" % (name, ids.dtype))
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise DataError("%s out of range" % name)
    view = ids.astype(np.min_scalar_type(max(size - 1, 0)), copy=False).view()
    view.setflags(write=False)
    return view


def rows_matching(ds: Dataset, items) -> np.ndarray:
    """Boolean mask of the rows whose cells hold every (feature, category id) item."""
    mask = np.ones(ds.n, dtype=bool)
    for f, c in items:
        mask &= ds.columns[f] == c
    return mask


def _parse_reals(cells) -> "np.ndarray | None":
    """The cells as float64 if every one parses as a finite number, else None."""
    try:
        reals = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return None
    return reals if np.isfinite(reals).all() else None


def _encode(cells, ids: dict) -> np.ndarray:
    """Category ids of cells as int32, numbering cells not yet in ids after those held.

    ids maps each category met so far to its id, in first-appearance order;
    it is extended in place, so encoding a column block by block gives the
    ids of one pass over the whole column.
    """
    new = [c for c in dict.fromkeys(cells) if c not in ids]
    ids.update(zip(new, range(len(ids), len(ids) + len(new))))
    return np.fromiter(map(ids.__getitem__, cells), dtype=np.int32, count=len(cells))


@contextmanager
def open_text(path: str):
    """A UTF-8 text file, newlines kept as written; bytes that do not decode raise DataError.

    A leading byte-order mark is dropped, as Excel's "CSV UTF-8" writes one.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError("file %r is not valid UTF-8: %s" % (path, exc)) from None


@contextmanager
def open_output(path: str):
    """A UTF-8 text file for writing that replaces path only when the block completes.

    The text goes to a temporary file in path's directory, and os.replace
    moves it onto path when the block ends. If the block raises, the
    temporary file is removed and whatever was at path is left unchanged.
    A missing directory raises DataError naming path before anything is written.
    Newlines are written as given. A path that names something other than
    a regular file, such as a pipe or /dev/stdout, is written directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # through a symlink, replace the file it names
    head, tail = os.path.split(target)
    if not os.path.isdir(head):
        raise DataError("cannot write %r: its directory does not exist" % path)
    tmp = os.path.join(head, ".%s.%s.tmp" % (tail, os.urandom(4).hex()))
    # O_EXCL with mode 0o666 gives the file the mode open(path, "w") would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def open_csv(path: str):
    """A csv reader over a UTF-8 file; bytes that do not decode raise DataError.

    So does a line the reader refuses, such as a cell longer than
    csv.field_size_limit() (131,072 characters); the message names the line.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise DataError("file %r line %d: %s" % (path, reader.line_num, exc)) from None


BLOCK_ROWS = 256
"""Rows load_csv reads and write_csv writes at a time; only one block's cells are held as text."""


def _blocks(reader, width: int):
    """The reader's rows in lists of up to BLOCK_ROWS, each row checked to hold width non-empty cells.

    A faulty row is named by its position counted as if the header were row 1
    and every row one line.
    """
    row = 2
    while block := list(itertools.islice(reader, BLOCK_ROWS)):
        for cells in block:
            if len(cells) != width:
                raise DataError("row %d has %d cells, header has %d" % (row, len(cells), width))
            if "" in cells:
                raise DataError("row %d has an empty cell" % row)
            row += 1
        yield block


def _cells_again(path: str, width: int):
    """The cells of the file at path, read again past its header, as one tuple per column a block at a time."""
    with open_csv(path) as reader:
        next(reader)
        for block in _blocks(reader, width):
            yield list(zip(*block))


def load_csv(
    path: str,
    label_column: str,
    declared_kinds: "dict[str, ColumnKind] | None" = None,
) -> Dataset:
    """Load a CSV file with a header row into a Dataset, reading BLOCK_ROWS rows at a time.

    label_column names the class column; every other column becomes a
    feature, its categories numbered by first appearance. Bins made by
    discretize.apply_dataset are numbered the same way, so a binned table
    equals the one loaded from its CSV. declared_kinds maps column names to
    the ColumnKind that overrides inference for them.

    The header, the label column and declared_kinds are checked before any
    row is read: a declared kind for a column the header lacks, for the
    label, or that is not a ColumnKind raises UsageError. A column is held
    as float64 blocks while all its cells parse as finite numbers, and as
    category ids once one does not. The columns that turn categorical after
    the first block are encoded after the last, in one more pass over path;
    when path is not a regular file, such as a pipe, which cannot be read
    twice, the text of every column that may still turn is held instead.

    Raises DataError on malformed input: a missing label column, no rows, a
    ragged row, an empty cell, a non-number in a column declared continuous
    (reported only once every row has been checked), bytes that are not
    UTF-8, or a line the csv reader refuses. A name the header holds twice,
    the label's included, is refused by Schema.
    """
    declared = declared_kinds or {}
    with open_csv(path) as reader:
        header = next(reader, None)
        if header is None:
            raise DataError("file %r has no header row" % path)
        if label_column not in header:
            raise DataError("label column %r not in header %r" % (label_column, header))
        for name, kind in declared.items():
            if name not in header:
                raise UsageError("declared kind for unknown column %r" % name)
            if name == label_column:
                raise UsageError("declared kind for label column %r, which is always categorical" % name)
            if not isinstance(kind, ColumnKind):
                raise UsageError("unknown column kind %r" % (kind,))

        label_pos = header.index(label_column)
        reals = {pos: [] for pos, name in enumerate(header)
                 if pos != label_pos and declared.get(name) is not ColumnKind.CATEGORICAL}
        ids = {pos: {} for pos in range(len(header)) if pos not in reals}
        codes = {pos: [] for pos in ids}
        bad = {}  # position -> first cell of a column declared continuous that is not a number
        late = []  # positions of the columns that turned categorical after the first block
        # a pipe cannot be read twice, so its cells that may yet be needed as text are held
        held = None if os.path.isfile(path) else []
        nblocks = 0
        for block in _blocks(reader, len(header)):
            cells = list(zip(*block))
            for pos in list(reals):
                values = _parse_reals(cells[pos])
                if values is not None:
                    reals[pos].append(values)
                    continue
                del reals[pos]
                if declared.get(header[pos]) is ColumnKind.CONTINUOUS:
                    bad[pos] = next(c for c in cells[pos] if _parse_reals((c,)) is None)
                elif nblocks:
                    late.append(pos)
                else:
                    ids[pos], codes[pos] = {}, []
            for pos, seen in ids.items():
                codes[pos].append(_encode(cells[pos], seen))
            if held is not None:
                held.append({pos: cells[pos] for pos in (*reals, *late)})
            nblocks += 1

    if not nblocks:
        raise DataError("file %r has a header but no data rows" % path)
    if bad:
        pos = min(bad)
        raise DataError("column %r declared continuous but cell %r is not a number" % (header[pos], bad[pos]))
    if late:
        # encoded from the first row in one more pass, since a float does not give back its text
        for pos in late:
            ids[pos], codes[pos] = {}, []
        for cells in held if held is not None else _cells_again(path, len(header)):
            for pos in late:
                codes[pos].append(_encode(cells[pos], ids[pos]))

    def joined(pos: int) -> np.ndarray:
        # one copy, straight into the dtype Dataset narrows the ids to
        dtype = np.min_scalar_type(len(ids[pos]) - 1)
        return np.concatenate(codes[pos], dtype=dtype, casting="unsafe")

    columns: list[np.ndarray] = []
    specs: list[Column] = []
    for pos, name in enumerate(header):
        if pos in reals:
            columns.append(np.concatenate(reals[pos]))
            specs.append(Column(name, ColumnKind.CONTINUOUS))
        elif pos != label_pos:
            columns.append(joined(pos))
            specs.append(Column(name, ColumnKind.CATEGORICAL, tuple(ids[pos])))
    schema = Schema(tuple(specs), label_column, tuple(ids[label_pos]))
    return Dataset(schema, tuple(columns), joined(label_pos))


def write_csv(ds: Dataset, fh) -> None:
    """Write the dataset as CSV to fh, BLOCK_ROWS rows at a time; loading the result preserves values.

    A categorical cell is written as its category, a continuous one as the
    repr of its float. The bytes are those of csv.writer's writerows, but
    each name, category and class is quoted by csv.writer once, and each
    row is joined from those texts. fh is a text file opened with
    newline="", as open_output opens one.
    """
    quoted = io.StringIO()
    writer = csv.writer(quoted)
    # csv.writer quotes a field alike in any row but for a lone empty field,
    # so a text is quoted as the first of two fields unless rows hold one
    pad = ("",) * bool(ds.p)

    def field(text: str) -> str:
        quoted.seek(0)
        quoted.truncate()
        writer.writerow((text,) + pad)
        return quoted.getvalue()[: -2 - len(pad)]

    def fields(texts) -> np.ndarray:
        return np.array([field(text) for text in texts], dtype=object)

    texts = [fields(spec.categories) if spec.kind is ColumnKind.CATEGORICAL else None
             for spec in ds.schema.features] + [fields(ds.schema.classes)]
    fh.write(",".join(map(field, [c.name for c in ds.schema.features] + [ds.schema.label_name])) + "\r\n")
    for start in range(0, ds.n, BLOCK_ROWS):
        blocks = [col[start:start + BLOCK_ROWS] for col in ds.columns + (ds.labels,)]
        rows = zip(*(
            map(repr, block.astype(np.float64).tolist()) if text is None else text[block].tolist()
            for text, block in zip(texts, blocks)
        ))
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def binary_dataset(
    matrix: np.ndarray,
    labels: np.ndarray,
    class_names: "tuple[str, ...] | None" = None,
) -> Dataset:
    """Wrap a 0/1 integer matrix as a categorical Dataset.

    Features are named X1..Xp and the label Y. Every feature gets the two
    categories ("0", "1") with ids equal to the cell values, even if one
    value never occurs; this keeps constant columns representable. Used by
    the synthetic generators.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    n, p = matrix.shape
    if class_names is None:
        class_names = tuple(str(c) for c in range(int(labels.max()) + 1 if n else 1))
    feats = tuple(
        Column("X%d" % (j + 1), ColumnKind.CATEGORICAL, ("0", "1")) for j in range(p)
    )
    schema = Schema(feats, "Y", class_names)
    cols = tuple(np.ascontiguousarray(matrix[:, j]) for j in range(p))
    return Dataset(schema, cols, labels)
