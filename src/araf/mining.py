"""Frequent class-itemset mining with fixed-size accumulators.

The search space is every (feature=category, class) singleton plus every
pair of singletons sharing a class but not a feature. Instead of a minimum
support threshold, selection keeps the d_freq strongest itemsets in a
bounded min-heap, ordered by support with ties broken toward the itemset
enumerated first. Pair candidates are generated only from frequent
singletons of the same class, so an itemset never survives that one of its
subsets would beat.

Enumeration order: singletons by (feature index, category id, class id);
pairs by (first constituent's rank, second constituent's rank), after all
singletons. Ranks encode that order sparsely; their values are stable for a
given schema, identical for the exhaustive reference miner, and unique
within a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heappush, heapreplace

import numpy as np

from .data import Dataset, Schema
from .errors import DataError, UsageError

Item = tuple[int, int]  # (feature index, category id)
Antecedent = tuple[Item, ...]  # length 1 or 2, feature indices strictly increasing


class Scoring(enum.Enum):
    CONFIDENCE = "conf"
    RELATIVE_CONFIDENCE = "rconf"
    LIFT = "lift"


@dataclass(frozen=True)
class ClassItemset:
    """An antecedent together with a class and its joint support count."""

    antecedent: Antecedent
    class_id: int
    support: int
    rank: int

    @property
    def size(self) -> int:
        return len(self.antecedent)


@dataclass(frozen=True)
class MiningConfig:
    """Knobs for one mining run.

    d_freq bounds the frequent-itemset pool, d_conf the rule output.
    per_class splits the frequent pool evenly across classes; reluctant
    additionally drops interactions that do not beat their main effects
    and requires per_class. subsample, when set, draws that many rows with
    replacement for selection; the selected itemsets are then recounted on
    the full data before scoring.
    """

    d_freq: int
    d_conf: int
    per_class: bool = False
    scoring: Scoring = Scoring.CONFIDENCE
    reluctant: bool = False
    subsample: "int | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_freq < 1:
            raise UsageError("d_freq must be >= 1")
        if not 1 <= self.d_conf <= self.d_freq:
            raise UsageError("d_conf must satisfy 1 <= d_conf <= d_freq")
        if self.reluctant and not self.per_class:
            raise UsageError("reluctant selection requires per_class mining")
        if self.subsample is not None and self.subsample < 1:
            raise UsageError("subsample size must be >= 1")

    def per_class_capacity(self, num_classes: int) -> int:
        return max(1, self.d_freq // num_classes)


def canonical_antecedent(items) -> Antecedent:
    """Sort items by feature index and validate distinctness."""
    ordered = tuple(sorted(items))
    if len(ordered) not in (1, 2):
        raise DataError("antecedents hold one or two items")
    if len(ordered) == 2 and ordered[0][0] == ordered[1][0]:
        raise DataError("antecedent items must come from distinct features")
    return ordered


class RankSpace:
    """Maps itemsets of a schema to their enumeration ranks."""

    def __init__(self, schema: Schema) -> None:
        sizes = [len(col.categories) for col in schema.features]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.num_classes = schema.num_classes
        self.total_items = int(self.offsets[-1])
        # every (item, class) singleton ranks below every pair
        self.pair_base = self.total_items * self.num_classes

    def item_rank(self, item: Item, class_id: int) -> int:
        feature, category = item
        return (int(self.offsets[feature]) + category) * self.num_classes + class_id

    def rank(self, antecedent: Antecedent, class_id: int) -> int:
        if len(antecedent) == 1:
            return self.item_rank(antecedent[0], class_id)
        r1 = self.item_rank(antecedent[0], class_id)
        r2 = self.item_rank(antecedent[1], class_id)
        return self.pair_base * (1 + r1) + r2


class TopKAccumulator:
    """Bounded min-heap keeping the strongest itemsets seen so far.

    Strength is (support descending, rank ascending); ranks are unique, so
    the order is total and the content deterministic for any push sequence.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise UsageError("capacity must be >= 1")
        self.capacity = capacity
        self._heap: list[tuple[int, int, ClassItemset]] = []

    def push(self, itemset: ClassItemset) -> bool:
        """Offer one itemset; returns True when it was kept."""
        key = (itemset.support, -itemset.rank)
        if len(self._heap) < self.capacity:
            heappush(self._heap, (*key, itemset))
            return True
        if key > self._heap[0][:2]:
            heapreplace(self._heap, (*key, itemset))
            return True
        return False

    def __len__(self) -> int:
        return len(self._heap)

    def items(self) -> list[ClassItemset]:
        """Content sorted by support descending, rank ascending."""
        return [entry[2] for entry in sorted(self._heap, key=lambda e: (-e[0], e[2].rank))]


def select_topk(itemsets, capacity: int) -> list[ClassItemset]:
    acc = TopKAccumulator(capacity)
    for its in itemsets:
        acc.push(its)
    return acc.items()


@dataclass
class SingletonTable:
    """Joint counts of every (feature=category, class) cell, one scan of the data.

    Cells never observed stay at zero but are present, so downstream code can
    read the count of any singleton without special cases.
    """

    counts: np.ndarray  # (total item slots, num classes)
    offsets: np.ndarray
    class_totals: np.ndarray
    n: int

    def count(self, item: Item, class_id: int) -> int:
        return int(self.counts[int(self.offsets[item[0]]) + item[1], class_id])

    def class_counts(self, item: Item) -> np.ndarray:
        return self.counts[int(self.offsets[item[0]]) + item[1]]


def count_singletons(ds: Dataset) -> SingletonTable:
    matrix = ds.categorical_matrix()
    num_classes = ds.num_classes
    sizes = [len(col.categories) for col in ds.schema.features]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    counts = np.zeros((int(offsets[-1]), num_classes), dtype=np.int64)
    for j in range(ds.p):
        flat = matrix[:, j] * num_classes + ds.labels
        col = np.bincount(flat, minlength=sizes[j] * num_classes)
        counts[offsets[j] : offsets[j] + sizes[j]] = col.reshape(sizes[j], num_classes)
    return SingletonTable(
        counts=counts,
        offsets=offsets,
        class_totals=ds.class_counts(),
        n=ds.n,
    )


def iter_singletons(table: SingletonTable, schema: Schema, ranks: RankSpace):
    """Yield every singleton class itemset, zero-support cells included."""
    for j, col in enumerate(schema.features):
        for cat in range(len(col.categories)):
            row = table.counts[int(table.offsets[j]) + cat]
            for c in range(schema.num_classes):
                ant = ((j, cat),)
                yield ClassItemset(ant, c, int(row[c]), ranks.rank(ant, c))


def generate_pair_candidates(
    frequent_singletons: list[ClassItemset], ranks: RankSpace
) -> list[ClassItemset]:
    """All same-class pairs of frequent singletons over distinct features.

    Returned with support 0 (counting happens separately), sorted by rank,
    without duplicates.
    """
    by_class: dict[int, list[Item]] = {}
    for its in frequent_singletons:
        if its.size != 1:
            continue
        by_class.setdefault(its.class_id, []).append(its.antecedent[0])
    seen: set[tuple[Antecedent, int]] = set()
    out: list[ClassItemset] = []
    for class_id, items in by_class.items():
        items = sorted(set(items))
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                if items[a][0] == items[b][0]:
                    continue
                ant = (items[a], items[b])
                key = (ant, class_id)
                if key in seen:
                    continue
                seen.add(key)
                out.append(ClassItemset(ant, class_id, 0, ranks.rank(ant, class_id)))
    out.sort(key=lambda its: its.rank)
    return out


def count_pairs(ds: Dataset, antecedents) -> dict[Antecedent, np.ndarray]:
    """Joint per-class counts for each two-item antecedent, one scan.

    Counts are recorded for every class, not only the class that proposed a
    candidate, because confidence needs the full antecedent marginal.
    """
    matrix = ds.categorical_matrix()
    num_classes = ds.num_classes
    masks: dict[Item, np.ndarray] = {}

    def mask(item: Item) -> np.ndarray:
        got = masks.get(item)
        if got is None:
            got = matrix[:, item[0]] == item[1]
            masks[item] = got
        return got

    out: dict[Antecedent, np.ndarray] = {}
    for ant in antecedents:
        if ant in out:
            continue
        joint = mask(ant[0]) & mask(ant[1])
        out[ant] = np.bincount(ds.labels[joint], minlength=num_classes).astype(np.int64)
    return out


@dataclass
class TableStats:
    """Counting-table sizes, recorded so memory claims are checkable.

    Both fields count antecedent keys: every possible (feature, category)
    slot for singletons, and each distinct counted pair antecedent. The
    per-class count vectors are the values behind those keys.
    """

    singleton_entries: int
    pair_entries: int


@dataclass
class SubsampleMeta:
    n_prime: int
    seed: int
    full_n: int


@dataclass
class MiningResult:
    """Frequent itemsets plus the count tables needed to score rules.

    Exactly one of itemsets (global mode) or per_class (per-class mode) is
    populated. Supports, n and class_totals are counts on the full data,
    also when selection ran on a subsample.
    """

    schema: Schema
    n: int
    class_totals: np.ndarray
    itemsets: "list[ClassItemset] | None"
    per_class: "dict[int, list[ClassItemset]] | None"
    table_stats: TableStats
    subsample_meta: "SubsampleMeta | None" = None
    _singletons: SingletonTable = field(repr=False, default=None)
    _pair_counts: dict = field(repr=False, default_factory=dict)

    def all_itemsets(self) -> list[ClassItemset]:
        if self.itemsets is not None:
            return list(self.itemsets)
        out: list[ClassItemset] = []
        for c in sorted(self.per_class):
            out.extend(self.per_class[c])
        return out

    def antecedent_class_counts(self, antecedent: Antecedent) -> np.ndarray:
        """Support of antecedent jointly with each class."""
        if len(antecedent) == 1:
            return self._singletons.class_counts(antecedent[0])
        got = self._pair_counts.get(antecedent)
        if got is None:
            raise DataError("antecedent %r was never counted" % (antecedent,))
        return got


def mine_frequent(ds: Dataset, config: MiningConfig) -> MiningResult:
    """Mine the d_freq strongest class itemsets of size one and two.

    Global mode keeps a single accumulator where pairs may evict main
    effects; per-class mode gives every class its own accumulator with
    capacity max(1, d_freq // num_classes). With config.subsample set,
    selection runs on a with-replacement subsample and all surviving counts
    are then recomputed exactly in one pass over the full data.
    """
    from .sampling import SubsampleConfig, subsample  # local import: sampler also imports data

    ranks = RankSpace(ds.schema)
    count_ds = ds
    meta = None
    if config.subsample is not None:
        count_ds = subsample(ds, SubsampleConfig(config.subsample, config.seed))
        meta = SubsampleMeta(n_prime=config.subsample, seed=config.seed, full_n=ds.n)

    # global mode is per-class mode with every class in group 0
    if config.per_class:
        groups, capacity = range(ds.num_classes), config.per_class_capacity(ds.num_classes)
    else:
        groups, capacity = (0,), config.d_freq
    accs = {g: TopKAccumulator(capacity) for g in groups}

    def push(its: ClassItemset) -> None:
        accs[its.class_id if config.per_class else 0].push(its)

    singletons = count_singletons(count_ds)
    for its in iter_singletons(singletons, ds.schema, ranks):
        push(its)
    candidates = generate_pair_candidates([its for g in groups for its in accs[g].items()], ranks)
    pair_counts = count_pairs(count_ds, [c.antecedent for c in candidates])
    for cand in candidates:
        support = int(pair_counts[cand.antecedent][cand.class_id])
        push(ClassItemset(cand.antecedent, cand.class_id, support, cand.rank))
    pools = {g: accs[g].items() for g in groups}

    stats = TableStats(
        singleton_entries=int(singletons.counts.shape[0]),
        pair_entries=len(pair_counts),
    )

    if meta is not None:
        # selection was approximate; recount what survived on the full data
        singletons = count_singletons(ds)
        kept = sorted({its.antecedent for pool in pools.values() for its in pool if its.size == 2})
        pair_counts = count_pairs(ds, kept)

        def exact(its: ClassItemset) -> ClassItemset:
            if its.size == 1:
                support = singletons.count(its.antecedent[0], its.class_id)
            else:
                support = int(pair_counts[its.antecedent][its.class_id])
            return ClassItemset(its.antecedent, its.class_id, support, its.rank)

        pools = {
            g: sorted(map(exact, pool), key=lambda its: (-its.support, its.rank))
            for g, pool in pools.items()
        }

    return MiningResult(
        schema=ds.schema,
        n=ds.n,
        class_totals=singletons.class_totals,
        itemsets=None if config.per_class else pools[0],
        per_class=pools if config.per_class else None,
        table_stats=stats,
        subsample_meta=meta,
        _singletons=singletons,
        _pair_counts=pair_counts,
    )


def mine_with_thresholds(ds: Dataset, minsupp: float, minconf: float):
    """Classic minimum-support, minimum-confidence mining (reference path).

    minsupp is a fraction of the database size; minconf a confidence bound.
    Returns (result, rules); rules come sorted by enumeration rank and their
    number is data dependent rather than fixed.
    """
    from .rules import generate_rules_threshold

    if not 0 < minsupp <= 1:
        raise UsageError("minsupp must lie in (0, 1]")
    if not 0 <= minconf <= 1:
        raise UsageError("minconf must lie in [0, 1]")

    ranks = RankSpace(ds.schema)
    singletons = count_singletons(ds)
    floor = minsupp * ds.n - 1e-9
    fs1 = [
        its
        for its in iter_singletons(singletons, ds.schema, ranks)
        if its.support >= floor
    ]
    candidates = generate_pair_candidates(fs1, ranks)
    pair_counts = count_pairs(ds, [c.antecedent for c in candidates])
    fs2 = [
        ClassItemset(c.antecedent, c.class_id, int(pair_counts[c.antecedent][c.class_id]), c.rank)
        for c in candidates
    ]
    frequent = fs1 + [its for its in fs2 if its.support >= floor]
    frequent.sort(key=lambda its: its.rank)

    result = MiningResult(
        schema=ds.schema,
        n=ds.n,
        class_totals=singletons.class_totals,
        itemsets=frequent,
        per_class=None,
        table_stats=TableStats(int(singletons.counts.shape[0]), len(pair_counts)),
        _singletons=singletons,
        _pair_counts=pair_counts,
    )
    return result, generate_rules_threshold(result, minconf)
