"""Tabular dataset model: schema and CSV loading.

A dataset is a dense table of p feature columns plus one label column.
Categorical cells are stored as integer category ids; the id of a category
is its first-appearance position in file order, so ids are reproducible
from the file alone. Continuous cells are stored as float64. Labels are
always treated as categorical.

CSV handling follows the usual quoting conventions (header row required,
UTF-8). Rows with missing cells are rejected at load time rather than
imputed; column kinds are inferred (a column is continuous iff every cell
parses as a finite number) unless the caller declares them.
"""

from __future__ import annotations

import csv
import enum
import os
from contextlib import contextmanager
from dataclasses import dataclass

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
    """Immutable table: one numpy column per feature plus an int label vector.

    Categorical columns are int64 arrays of category ids; continuous columns
    are float64 arrays. All columns and the label vector share length n.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.columns) != self.schema.p:
            raise DataError("column count does not match schema")
        for col, spec in zip(self.columns, self.schema.features):
            if len(col) != n:
                raise DataError("column %r length differs from label length" % spec.name)
            if spec.kind is ColumnKind.CATEGORICAL:
                if col.size and (col.min() < 0 or col.max() >= len(spec.categories)):
                    raise DataError("category id out of range in column %r" % spec.name)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.schema.num_classes):
            raise DataError("label id out of range")

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
        return np.bincount(self.labels, minlength=self.num_classes).astype(np.int64)


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


def _encode(cells) -> tuple[np.ndarray, tuple[str, ...]]:
    """Category ids in first-appearance order, and the categories in that order."""
    ids: dict[str, int] = {}
    codes = [ids.setdefault(c, len(ids)) for c in cells]
    return np.array(codes, dtype=np.int64), tuple(ids)


@contextmanager
def open_text(path: str):
    """A UTF-8 text file, newlines kept as written; bytes that do not decode raise DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    """A csv reader over a UTF-8 file; bytes that do not decode raise DataError."""
    with open_text(path) as fh:
        yield csv.reader(fh)


def load_csv(
    path: str,
    label_column: str,
    declared_kinds: "dict[str, ColumnKind] | None" = None,
) -> Dataset:
    """Load a CSV file with a header row into a Dataset.

    label_column names the class column; every other column becomes a
    feature. declared_kinds maps column names to the ColumnKind that
    overrides inference for them. Raises DataError on malformed input:
    a missing label column, no rows, a ragged row, an empty cell, a
    non-number in a column declared continuous, or bytes that are not UTF-8.
    """
    with open_csv(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("file %r has no header row" % path) from None
        rows = list(reader)

    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    if label_column not in header:
        raise DataError(
            "label column %r not in header %r" % (label_column, header)
        )
    if not rows:
        raise DataError("file %r has a header but no data rows" % path)

    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                "row %d has %d cells, header has %d" % (i + 2, len(row), width)
            )
        if "" in row:
            raise DataError("row %d has an empty cell" % (i + 2))

    declared = declared_kinds or {}
    for name, kind in declared.items():
        if name not in header:
            raise UsageError("declared kind for unknown column %r" % name)
        if name == label_column:
            raise UsageError("declared kind for label column %r, which is always categorical" % name)
        if not isinstance(kind, ColumnKind):
            raise UsageError("unknown column kind %r" % (kind,))

    columns: list[np.ndarray] = []
    specs: list[Column] = []
    # one column's cells at a time: a transposed copy of every row would
    # hold a second reference per cell
    for pos, name in enumerate(header):
        if name == label_column:
            continue
        cells = [row[pos] for row in rows]
        kind = declared.get(name)
        reals = None if kind is ColumnKind.CATEGORICAL else _parse_reals(cells)
        if kind is ColumnKind.CONTINUOUS and reals is None:
            bad = next(c for c in cells if _parse_reals((c,)) is None)
            raise DataError(
                "column %r declared continuous but cell %r is not a number" % (name, bad)
            )
        if reals is not None:
            columns.append(reals)
            specs.append(Column(name, ColumnKind.CONTINUOUS))
        else:
            codes, categories = _encode(cells)
            columns.append(codes)
            specs.append(Column(name, ColumnKind.CATEGORICAL, categories))

    label_pos = header.index(label_column)
    labels, classes = _encode([row[label_pos] for row in rows])
    schema = Schema(tuple(specs), label_column, classes)
    return Dataset(schema, tuple(columns), labels)


def write_csv(ds: Dataset, fh) -> None:
    """Write the dataset as CSV to fh; loading the result preserves values.

    fh is a text file opened with newline="", as open_output opens one.
    """
    cols = []
    for spec, col in zip(ds.schema.features, ds.columns):
        if spec.kind is ColumnKind.CATEGORICAL:
            cols.append(np.array(spec.categories, dtype=object)[col].tolist())
        else:
            cols.append(map(repr, col.astype(np.float64).tolist()))
    cols.append(np.array(ds.schema.classes, dtype=object)[ds.labels].tolist())
    writer = csv.writer(fh)
    writer.writerow([c.name for c in ds.schema.features] + [ds.schema.label_name])
    writer.writerows(zip(*cols))


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
