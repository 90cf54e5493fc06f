"""Turning selected rules into binary model features.

Each distinct antecedent becomes one indicator column: 1 when the row
matches every item. Two assembly modes exist: appending all indicators to
the label-encoded (category id) base matrix, or appending only interaction
indicators to a one-hot base, where single-item indicators would duplicate
existing columns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, one_hot
from .errors import SchemaMismatchError, UsageError
from .mining import Antecedent


class FeatureMode(enum.Enum):
    APPEND_TO_LABEL_ENCODED = "label"
    APPEND_INTERACTIONS_TO_ONE_HOT = "onehot"


@dataclass(frozen=True)
class FeatureSpec:
    """An ordered, duplicate-free list of antecedents plus the assembly mode."""

    antecedents: tuple[Antecedent, ...]
    mode: FeatureMode


def generate_features(rules, mode: FeatureMode) -> FeatureSpec:
    """Collect rule antecedents in rule order, collapsing duplicates.

    Rules for different classes sharing an antecedent yield one feature. In
    one-hot mode single-item antecedents are dropped here, because the base
    encoding already contains exactly those columns.
    """
    seen: set[Antecedent] = set()
    ordered: list[Antecedent] = []
    for rule in rules:
        ant = rule.antecedent
        if mode is FeatureMode.APPEND_INTERACTIONS_TO_ONE_HOT and len(ant) == 1:
            continue
        if ant in seen:
            continue
        seen.add(ant)
        ordered.append(ant)
    return FeatureSpec(tuple(ordered), mode)


def _validate_antecedent(ant: Antecedent, ds: Dataset) -> None:
    for f, c in ant:
        if not 0 <= f < ds.p:
            raise SchemaMismatchError("antecedent references feature index %d" % f)
        col = ds.schema.features[f]
        if not 0 <= c < len(col.categories):
            raise SchemaMismatchError(
                "antecedent references category %d of column %r" % (c, col.name)
            )


def _indicator(ant: Antecedent, ds: Dataset) -> np.ndarray:
    mask = np.ones(ds.n, dtype=bool)
    for f, c in ant:
        mask &= ds.columns[f] == c
    return mask.astype(np.float64)


def antecedent_name(ant: Antecedent, schema) -> str:
    return "&".join(
        "%s=%s" % (schema.features[f].name, schema.features[f].categories[c])
        for f, c in ant
    )


def transform(ds: Dataset, spec: FeatureSpec) -> tuple[np.ndarray, list[str]]:
    """Assemble the design matrix for the given spec.

    Returns (matrix, column names). The dataset must be fully categorical;
    unknown columns or categories in the spec raise SchemaMismatchError.
    """
    ds.schema.require_categorical("transform")
    for ant in spec.antecedents:
        _validate_antecedent(ant, ds)

    if spec.mode is FeatureMode.APPEND_TO_LABEL_ENCODED:
        base = np.column_stack([c.astype(np.float64) for c in ds.columns]) if ds.p else np.empty((ds.n, 0))
        base_names = [c.name for c in ds.schema.features]
        extra = spec.antecedents
    else:
        base, base_names = one_hot(ds)
        base = base.astype(np.float64)
        extra = tuple(ant for ant in spec.antecedents if len(ant) == 2)

    blocks = [base] + [_indicator(ant, ds).reshape(-1, 1) for ant in extra]
    names = base_names + [antecedent_name(ant, ds.schema) for ant in extra]
    return np.concatenate(blocks, axis=1) if blocks else base, names


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
