"""Cell-by-cell reference helpers for comparing and encoding datasets in tests."""

import numpy as np

from araf.data import ColumnKind


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
