"""Cell-by-cell reference helpers for comparing and encoding datasets in tests."""

import numpy as np

from araf.data import Column, ColumnKind, Dataset, Schema, open_csv
from araf.errors import DataError, UsageError


def encode_by_setdefault(cells):
    """Category ids in first-appearance order, and the categories, one setdefault per cell."""
    ids = {}
    codes = [ids.setdefault(c, len(ids)) for c in cells]
    return np.array(codes, dtype=np.int64), tuple(ids)


def decode_cell(ds, row: int, j: int) -> str:
    """The text of one feature cell: its category, or the repr of its real value."""
    spec = ds.schema.features[j]
    if spec.kind is ColumnKind.CATEGORICAL:
        return spec.categories[int(ds.columns[j][row])]
    return repr(float(ds.columns[j][row]))


def values_equal(a, b) -> bool:
    """Compare decoded cell values and labels, ignoring id assignment."""
    if a.n != b.n or a.p != b.p:
        return False
    for i in range(a.n):
        if a.schema.classes[a.labels[i]] != b.schema.classes[b.labels[i]]:
            return False
        for j in range(a.p):
            if decode_cell(a, i, j) != decode_cell(b, i, j):
                return False
    return True


def _parse_reals(cells):
    """The cells as float64 if every one parses as a finite number, else None."""
    try:
        reals = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return None
    return reals if np.isfinite(reals).all() else None


def reference_load_csv(path, label_column, declared_kinds=None):
    """load_csv as it was before it read blocks of rows: every row is held, then each column is built."""
    with open_csv(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("file %r has no header row" % path) from None
        rows = list(reader)

    if label_column not in header:
        raise DataError("label column %r not in header %r" % (label_column, header))
    if not rows:
        raise DataError("file %r has a header but no data rows" % path)

    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError("row %d has %d cells, header has %d" % (i + 2, len(row), width))
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

    label_pos = header.index(label_column)
    columns = []
    specs = []
    for pos, name in enumerate(header):
        if pos == label_pos:
            continue
        cells = [row[pos] for row in rows]
        kind = declared.get(name)
        reals = None if kind is ColumnKind.CATEGORICAL else _parse_reals(cells)
        if kind is ColumnKind.CONTINUOUS and reals is None:
            bad = next(c for c in cells if _parse_reals((c,)) is None)
            raise DataError("column %r declared continuous but cell %r is not a number" % (name, bad))
        if reals is not None:
            columns.append(reals)
            specs.append(Column(name, ColumnKind.CONTINUOUS))
        else:
            codes, categories = encode_by_setdefault(cells)
            columns.append(codes)
            specs.append(Column(name, ColumnKind.CATEGORICAL, categories))

    labels, classes = encode_by_setdefault([row[label_pos] for row in rows])
    schema = Schema(tuple(specs), label_column, classes)
    return Dataset(schema, tuple(columns), labels)
