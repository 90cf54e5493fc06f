"""Supervised discretization of continuous columns by entropy minimization.

A column is cut into k intervals with k-1 thresholds chosen greedily: each
round considers the interior quantiles of every current interval as split
candidates and commits the one whose resulting full partition has maximal
information gain. Candidate thresholds sit at the midpoint between a
quantile's value and the next distinct value, so applying the cuts never
depends on which side a tied training value fell.

Intervals are left-open and right-closed; the two outer intervals extend to
minus and plus infinity, so the mapping is total over the reals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Column, ColumnKind, Dataset, Schema
from .errors import (
    AllZeroError,
    DataError,
    EmptyInputError,
    InsufficientRowsError,
    UsageError,
)


@dataclass(frozen=True)
class DiscretizationMap:
    """Thresholds for one column.

    k is the requested interval count; len(thresholds) == k - 1 unless the
    column had too few distinct values, in which case degenerate is True and
    as many thresholds as the data allows are kept.
    """

    column: str
    k: int
    thresholds: tuple[float, ...]
    degenerate: bool = False

    def interval_names(self) -> list[str]:
        edges = ["-inf"] + ["%.6g" % t for t in self.thresholds]
        names = []
        for i in range(len(self.thresholds) + 1):
            hi = "%.6g" % self.thresholds[i] if i < len(self.thresholds) else "inf"
            names.append("(%s,%s]" % (edges[i], hi))
        return names


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a count vector.

    Zero counts contribute nothing; an all-zero vector is undefined and
    raises AllZeroError.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.size == 0 or counts.sum() == 0:
        raise AllZeroError("entropy of an empty distribution is undefined")
    if (counts < 0).any():
        raise DataError("negative counts")
    return _entropy_bits(counts)


def _entropy_bits(counts: np.ndarray) -> float:
    """entropy() of a float64 count vector already known to be valid."""
    probs = counts[counts > 0] / np.add.reduce(counts)
    return float(-np.add.reduce(probs * np.log2(probs)))


def info_gain(labels, partition, num_classes: "int | None" = None) -> float:
    """Information gain of splitting labels by the given part assignment.

    partition[i] is the part index of row i. The gain is the label entropy
    minus the size-weighted entropy of each part.

    fit_discretizer does not call this: it takes every candidate's gain from
    prefix class counts, with the same float operations, so its cuts are
    bit-identical to a search scored by info_gain. This row-level form is
    kept as that reference, and the benchmark's tracer binds it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    partition = np.asarray(partition, dtype=np.int64)
    if labels.size == 0:
        raise EmptyInputError("info gain needs at least one row")
    if labels.shape != partition.shape:
        raise DataError("labels and partition lengths differ")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    total = entropy(np.bincount(labels, minlength=num_classes))
    n = labels.size
    weighted = 0.0
    for part in np.unique(partition):
        sub = labels[partition == part]
        weighted += (sub.size / n) * entropy(np.bincount(sub, minlength=num_classes))
    return total - weighted


def _candidate_cuts(sorted_vals: np.ndarray, l: int) -> set[float]:
    """Midpoint candidates at the l interior quantiles of one interval."""
    m = sorted_vals.size
    if m < 2:
        return set()
    pos = np.ceil(np.arange(1, l + 1) * m / (l + 1)).astype(np.int64) - 1
    v = sorted_vals[np.clip(pos, 0, m - 1)]
    right = np.searchsorted(sorted_vals, v, side="right")
    keep = right < m  # a quantile at the interval maximum has nothing to its right
    return set(((v[keep] + sorted_vals[right[keep]]) / 2.0).tolist())


def fit_discretizer(values, labels, k: int, l: int = 10, column: str = "") -> DiscretizationMap:
    """Choose up to k-1 thresholds for one continuous column.

    Each of the k-1 greedy rounds evaluates the interior quantile midpoints
    of every current interval (duplicates once) and commits the candidate
    maximizing the information gain of the full partition, breaking ties
    toward the smallest threshold. Stops early when no interval can be
    split further and flags the result degenerate.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if values.size != labels.size:
        raise DataError("values and labels lengths differ")
    if k < 1:
        raise UsageError("interval count k must be >= 1")
    if l < 1:
        raise UsageError("quantile count l must be >= 1")
    if values.size < k:
        raise InsufficientRowsError(
            "need at least %d rows for %d intervals, have %d" % (k, k, values.size)
        )
    if not np.isfinite(values).all():
        raise DataError("values must be finite")

    if labels.min() < 0:
        raise DataError("labels must be nonnegative class ids")

    # Rows sorted by value, so every interval (lo, hi] is a slice [a, b) of
    # them and its class counts are prefix[b] - prefix[a]. Each part's
    # entropy is computed once, keyed by its slice, by entropy()'s own code,
    # and parts are summed in ascending order: every gain takes the float
    # operations info_gain takes on the full partition, so cuts and ties
    # come out bit-identical to it.
    n = values.size
    num_classes = int(labels.max()) + 1
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    prefix = np.zeros((n + 1, num_classes))
    prefix[np.arange(1, n + 1), labels[order]] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    part_entropy: dict[tuple[int, int], float] = {}

    def weighted_entropy(edges: list[int]) -> float:
        weighted = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if b > a:  # info_gain visits only the nonempty parts
                h = part_entropy.get((a, b))
                if h is None:
                    h = part_entropy[(a, b)] = _entropy_bits(prefix[b] - prefix[a])
                weighted += ((b - a) / n) * h
        return weighted

    total = entropy(prefix[n])
    thresholds: list[float] = []
    for _ in range(k - 1):
        inner = np.searchsorted(sorted_vals, thresholds, side="right").tolist()
        edges = [0] + inner + [n]
        candidates: set[float] = set()
        for a, b in zip(edges[:-1], edges[1:]):
            candidates |= _candidate_cuts(sorted_vals[a:b], l)
        if not candidates:
            break
        cuts = sorted(candidates)
        cut_edges = np.searchsorted(sorted_vals, cuts, side="right").tolist()
        best_gain = -math.inf
        best_cut = math.inf
        for cut, e in zip(cuts, cut_edges):
            gain = total - weighted_entropy(sorted(edges + [e]))
            if gain > best_gain:  # ties keep the earlier (smaller) cut
                best_gain = gain
                best_cut = cut
        thresholds = sorted(thresholds + [best_cut])

    return DiscretizationMap(
        column=column,
        k=k,
        thresholds=tuple(thresholds),
        degenerate=len(thresholds) < k - 1,
    )


def apply_discretizer(dmap: DiscretizationMap, values) -> np.ndarray:
    """Map reals to interval ids; values equal to a threshold go left."""
    values = np.asarray(values, dtype=np.float64)
    return np.searchsorted(np.asarray(dmap.thresholds), values, side="left").astype(np.int64)


def fit_dataset(ds: Dataset, k: int, l: int = 10) -> list[DiscretizationMap]:
    """Fit a map for every continuous column of the dataset."""
    maps = []
    for j, spec in enumerate(ds.schema.features):
        if spec.kind is ColumnKind.CONTINUOUS:
            maps.append(fit_discretizer(ds.columns[j], ds.labels, k, l, column=spec.name))
    return maps


def apply_dataset(ds: Dataset, maps: list[DiscretizationMap]) -> Dataset:
    """Replace continuous columns with categorical interval columns.

    Interval categories are named like "(-inf,2.5]" so downstream rules
    stay readable; category ids follow interval order.
    """
    by_name = {m.column: m for m in maps}
    new_cols: list[np.ndarray] = []
    new_specs: list[Column] = []
    for j, spec in enumerate(ds.schema.features):
        if spec.kind is ColumnKind.CONTINUOUS:
            dmap = by_name.get(spec.name)
            if dmap is None:
                raise DataError("no discretization map for continuous column %r" % spec.name)
            new_cols.append(apply_discretizer(dmap, ds.columns[j]))
            new_specs.append(
                Column(spec.name, ColumnKind.CATEGORICAL, tuple(dmap.interval_names()))
            )
        else:
            new_cols.append(ds.columns[j])
            new_specs.append(spec)
    schema = Schema(tuple(new_specs), ds.schema.label_name, ds.schema.classes)
    return Dataset(schema, tuple(new_cols), ds.labels)


def maps_to_json(maps: list[DiscretizationMap]) -> str:
    return json.dumps(
        [
            {
                "column": m.column,
                "k": m.k,
                "thresholds": list(m.thresholds),
                "degenerate": m.degenerate,
            }
            for m in maps
        ],
        indent=2,
    )


def maps_from_json(text: str) -> list[DiscretizationMap]:
    raw = json.loads(text)
    return [
        DiscretizationMap(
            column=item["column"],
            k=int(item["k"]),
            thresholds=tuple(float(t) for t in item["thresholds"]),
            degenerate=bool(item.get("degenerate", False)),
        )
        for item in raw
    ]
