"""Turning selected rules into binary model features.

Each distinct antecedent becomes one indicator column: 1 when the row
matches every item. Two assembly modes exist: appending all indicators to
the label-encoded (category id) base matrix, or appending only interaction
indicators to a one-hot base, where single-item indicators would duplicate
existing columns. transform is the one place a feature matrix is built.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .data import Dataset, rows_matching
from .errors import DataError, UsageError
from .mining import Antecedent


class FeatureMode(enum.Enum):
    APPEND_TO_LABEL_ENCODED = "label"
    APPEND_INTERACTIONS_TO_ONE_HOT = "onehot"


def _validate_antecedent(ant: Antecedent, ds: Dataset) -> None:
    for f, c in ant:
        if not 0 <= f < ds.p:
            raise DataError("antecedent references feature index %d" % f)
        col = ds.schema.features[f]
        if not 0 <= c < len(col.categories):
            raise DataError(
                "antecedent references category %d of column %r" % (c, col.name)
            )


def antecedent_name(ant: Antecedent, schema) -> str:
    return "&".join(
        "%s=%s" % (schema.features[f].name, schema.features[f].categories[c])
        for f, c in ant
    )


def transform(ds: Dataset, antecedents, mode: FeatureMode) -> tuple[np.ndarray, list[str]]:
    """Assemble the design matrix for antecedents given in rule order.

    A repeated antecedent keeps its first position, so rules of different
    classes sharing an antecedent give one column. Label mode appends each
    antecedent's indicator to the category ids. One-hot mode starts from the
    indicator of every single item in schema order ("column=category") and
    appends only the two-item antecedents, whose single items it already
    holds. Returns (matrix, column names). Every cell is a category id or a
    0/1 indicator, so the matrix takes the narrowest unsigned dtype that
    holds the base columns' ids and 1: one byte a cell in one-hot mode and up
    to 256 categories a column. The dataset must be fully
    categorical; an antecedent naming a column or category the schema lacks
    raises DataError.
    """
    ds.schema.require_categorical("transform")
    extra = list(dict.fromkeys(antecedents))
    for ant in extra:
        _validate_antecedent(ant, ds)

    if mode is FeatureMode.APPEND_TO_LABEL_ENCODED:
        base = ds.columns
        names = ds.schema.feature_names()
    else:
        base = ()
        names = []
        items = [
            ((f, c),) for f, col in enumerate(ds.schema.features) for c in range(len(col.categories))
        ]
        extra = items + [ant for ant in extra if len(ant) == 2]

    dtype = np.result_type(np.uint8, *(col.dtype for col in base))
    matrix = np.empty((ds.n, len(base) + len(extra)), dtype=dtype)
    for j, col in enumerate(base):
        matrix[:, j] = col
    for j, ant in enumerate(extra, len(base)):
        matrix[:, j] = rows_matching(ds, ant)
    return matrix, names + [antecedent_name(ant, ds.schema) for ant in extra]


def suggest_params(p: int, num_classes: int) -> tuple[int, int]:
    """Default capacities that scale with the square root of the width.

    d_freq = 5 * num_classes * floor(sqrt(p)), d_conf = 5 * floor(sqrt(p)),
    keeping d_freq / d_conf at the class count so per-class pools stay
    comparable to the rule budget.
    """
    if p < 1:
        raise UsageError("need at least one feature column")
    if num_classes < 1:
        raise UsageError("need at least one class")
    root = math.isqrt(p)
    return 5 * num_classes * root, 5 * root
