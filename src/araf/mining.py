"""Frequent class-itemset mining with fixed-size top-k selection.

The search space is every (feature=category, class) singleton plus every
pair of singletons sharing a class but not a feature. Instead of a minimum
support threshold, selection keeps the d_freq strongest itemsets, ordered
by support with ties broken toward the itemset enumerated first. Pair
candidates are generated only from frequent singletons of the same class,
so an itemset never survives that one of its subsets would beat.

Enumeration order: singletons by (feature index, category id, class id);
pairs by (first constituent's rank, second constituent's rank), after all
singletons. Ranks encode that order sparsely; their values are stable for a
given schema, identical for the exhaustive reference miner, and unique
within a run.

Counting and selection run on arrays. An itemset is a row of parallel
arrays (support, r1, r2): r1 is the rank of its first (or only) singleton,
r2 the rank of its second singleton, or -1. Singletons are counted with one
bincount per block of rows. All candidate pairs are counted together, the
vertical way of Eclat's tid-lists (Zaki 2000) and MAFIA's bitmaps (Burdick
et al. 2001): each item holds a bit set of the rows it occurs in, and a
pair's count is the popcount of the AND of its two items' bit sets. Counts
are exact integers at any n. Python ClassItemsets are built only for the
itemsets selected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Schema
from .errors import DataError, UsageError
from .sampling import subsample

Item = tuple[int, int]  # (feature index, category id)
Antecedent = tuple[Item, ...]  # length 1 or 2, feature indices strictly increasing

BLOCK_ROWS = 1 << 14
"""Rows per counting block; bounds the temporaries on tall tables."""

CHUNK_WORDS = 1 << 16
"""64-bit words per chunk of ANDed pair bit sets (a 512 KiB temporary)."""


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
    """Item indices and ranks of a schema's itemsets.

    Item i is category categories[i] of feature features[i]; a feature's
    items are offsets[f] .. offsets[f + 1] - 1. Singleton (item i, class c)
    has rank i * num_classes + c; a pair whose singletons have ranks
    r1 < r2 has rank pair_base * (1 + r1) + r2, above every singleton.
    """

    def __init__(self, schema: Schema) -> None:
        sizes = [len(col.categories) for col in schema.features]
        self.offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self.total_items = int(self.offsets[-1])
        self.features = np.repeat(np.arange(len(sizes)), sizes)
        self.categories = np.arange(self.total_items) - self.offsets[self.features]
        self.max_categories = max(sizes, default=0)
        self.num_classes = schema.num_classes
        self.pair_base = self.total_items * self.num_classes

    def itemsets(self, support, r1, r2) -> list[ClassItemset]:
        """The ClassItemsets of parallel (support, r1, r2) rows, in order."""
        num_classes = self.num_classes
        first, second = r1 // num_classes, np.maximum(r2, 0) // num_classes
        firsts = zip(self.features[first].tolist(), self.categories[first].tolist())
        seconds = zip(self.features[second].tolist(), self.categories[second].tolist())
        out = []
        for s, q1, q2, a, b in zip(support.tolist(), r1.tolist(), r2.tolist(), firsts, seconds):
            if q2 < 0:
                out.append(ClassItemset((a,), q1 % num_classes, s, q1))
            else:
                rank = self.pair_base * (1 + q1) + q2
                out.append(ClassItemset((a, b), q1 % num_classes, s, rank))
        return out


def _distinct(values: np.ndarray):
    """Sorted distinct values and the index of each value among them.

    np.unique's result, from one stable sort and a neighbour comparison.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def top_per_group(support, groups, capacity: int) -> np.ndarray:
    """Indices of each group's `capacity` strongest rows.

    Rows must come in rank order. Strength is support descending, then rank
    ascending, which the stable lexsort takes from the row order. Indices
    come grouped by ascending group id, strongest first within each group.
    """
    if capacity < 1:
        raise UsageError("capacity must be >= 1")
    order = np.lexsort((-support, groups))
    sorted_groups = groups[order]
    place = np.arange(len(order)) - np.searchsorted(sorted_groups, sorted_groups)
    return order[place < capacity]


def count_singletons(ds: Dataset, space: "RankSpace | None" = None) -> np.ndarray:
    """Every singleton's count, one bincount of (item, class) cells per block of rows.

    Returns the (total items, num classes) int64 array whose row
    offsets[f] + c (see RankSpace) holds category c of feature f; cells never
    observed are zero. Its ravel() is indexed by singleton rank.
    """
    ds.schema.require_categorical("mining")
    space = space or RankSpace(ds.schema)
    num_classes = ds.num_classes
    counts = np.zeros(space.total_items * num_classes, dtype=np.int64)
    base = space.offsets[:-1, None] * num_classes
    for lo in range(0, ds.n if ds.p else 0, BLOCK_ROWS):
        cells = np.stack([col[lo : lo + BLOCK_ROWS] for col in ds.columns], dtype=np.intp)
        cells *= num_classes
        cells += base
        cells += ds.labels[lo : lo + BLOCK_ROWS]
        counts += np.bincount(cells.ravel(), minlength=len(counts))
    return counts.reshape(space.total_items, num_classes)


def generate_pair_candidates(frequent, space: RankSpace) -> np.ndarray:
    """All same-class pairs of frequent singletons over distinct features.

    frequent holds singleton ranks. Returns one (m, 3) int64 array of
    (class, first item, second item) rows with first < second, sorted by
    pair rank, without duplicates; supports are counted separately.
    """
    ranks, _ = _distinct(np.asarray(frequent, dtype=np.int64).ravel())
    classes, items = ranks % space.num_classes, ranks // space.num_classes
    # in (class, item) order, the partners of a singleton follow it in its class's run
    order = np.argsort(classes, kind="stable")
    classes, items = classes[order], items[order]
    partners = np.searchsorted(classes, classes, side="right") - np.arange(len(classes)) - 1
    first = np.repeat(np.arange(len(classes)), partners)
    second = np.arange(len(first)) - np.repeat(np.cumsum(partners) - partners, partners) + first + 1
    out = np.column_stack([classes[first], items[first], items[second]])
    out = out[space.features[out[:, 1]] != space.features[out[:, 2]]]
    # pair rank order is (first item, class, second item); rows are in
    # (class, first, second) order, so a stable sort on the first two suffices
    return out[np.argsort(out[:, 1] * space.num_classes + out[:, 0], kind="stable")]


def count_pairs(ds: Dataset, pairs, space: "RankSpace | None" = None) -> np.ndarray:
    """Joint per-class counts of two-item antecedents, one pass over the rows.

    pairs is an (m, 2) array of item indices (see RankSpace); row k of the
    (m, num_classes) int64 result counts, per class, the rows holding both
    items of pair k. Every class is counted, not only the class that
    proposed a candidate, because confidence needs the full antecedent
    marginal.

    Each block of rows is laid out in class order, every class's run padded
    to whole 64-bit words, and each item of pairs gets a bit set over that
    layout. A pair's class-c count is the popcount of the AND of its two
    items' words in class c's run, summed into int64.
    """
    space = space or RankSpace(ds.schema)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    num_classes = ds.num_classes
    out = np.zeros((len(pairs), num_classes), dtype=np.int64)
    if not len(pairs):
        return out
    used, local = _distinct(pairs.ravel())
    first, second = local.reshape(pairs.shape).T
    features, feature_of_item = _distinct(space.features[used])
    categories = space.categories[used, None]
    sentinel = space.max_categories  # no category has this id
    code_dtype = np.min_scalar_type(sentinel)
    label_dtype = np.min_scalar_type(num_classes)  # small, so the stable sort is a radix sort
    for lo in range(0, ds.n, BLOCK_ROWS):
        labels = ds.labels[lo : lo + BLOCK_ROWS]
        rows = len(labels)
        sizes = np.bincount(labels, minlength=num_classes)
        words = -(-sizes // 64)
        # rows in class order, each class's run padded to whole words by
        # slots that read a sentinel column, which no item matches
        padding = np.repeat(np.arange(num_classes), 64 * words - sizes)
        slot_labels = np.concatenate([labels, padding], dtype=label_dtype, casting="unsafe")
        layout = np.minimum(np.argsort(slot_labels, kind="stable"), rows)
        codes = np.empty((len(features), rows + 1), dtype=code_dtype)
        codes[:, rows] = sentinel
        columns = [ds.columns[f][lo : lo + rows] for f in features.tolist()]
        np.stack(columns, out=codes[:, :rows], casting="unsafe")
        hits = codes.take(layout, axis=1)[feature_of_item] == categories
        bits = np.packbits(hits, axis=1).view(np.uint64)
        present = words > 0
        runs = (np.cumsum(words) - words)[present]
        step = max(1, CHUNK_WORDS // bits.shape[1])
        for k in range(0, len(pairs), step):
            both = np.bitwise_count(bits[first[k : k + step]] & bits[second[k : k + step]])
            out[k : k + step, present] += np.add.reduceat(both, runs, axis=1, dtype=np.int64)
    return out


def _count_candidates(ds: Dataset, space: RankSpace, singletons: np.ndarray, frequent):
    """The frequent singletons and every candidate pair of them, counted on ds.

    frequent holds singleton ranks in ascending order. Returns the
    (support, r1, r2) arrays of those itemsets in rank order, and the
    distinct pairs counted, as sorted pair keys (first * total_items +
    second) with their per-class counts.
    """
    classes, first, second = generate_pair_candidates(frequent, space).T
    keys, inverse = _distinct(first * space.total_items + second)
    counts = count_pairs(ds, np.column_stack(np.divmod(keys, space.total_items)), space)
    support = np.concatenate([singletons.ravel()[frequent], counts[inverse, classes]])
    r1 = np.concatenate([frequent, first * space.num_classes + classes])
    r2 = np.concatenate([np.full(len(frequent), -1), second * space.num_classes + classes])
    return (support, r1, r2), keys, counts


def _pair_keys(space: RankSpace, r1, r2) -> np.ndarray:
    """Pair keys of pair rows given by singleton ranks."""
    return r1 // space.num_classes * space.total_items + r2 // space.num_classes


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
class MiningResult:
    """Frequent itemsets plus the count tables needed to score rules.

    Exactly one of itemsets (global mode) or per_class (per-class mode) is
    populated. Supports, n and class_totals are counts on the full data,
    also when selection ran on a subsample. _counts maps the antecedent of
    every selected itemset, and only those, to its per-class counts.
    """

    schema: Schema
    n: int
    class_totals: np.ndarray
    itemsets: "list[ClassItemset] | None"
    per_class: "dict[int, list[ClassItemset]] | None"
    table_stats: TableStats
    _counts: dict = field(repr=False, default_factory=dict)

    def all_itemsets(self) -> list[ClassItemset]:
        if self.itemsets is not None:
            return list(self.itemsets)
        out: list[ClassItemset] = []
        for c in sorted(self.per_class):
            out.extend(self.per_class[c])
        return out

    def antecedent_class_counts(self, antecedent: Antecedent) -> np.ndarray:
        """Support of antecedent jointly with each class."""
        got = self._counts.get(antecedent)
        if got is None:
            raise DataError("antecedent %r was never counted" % (antecedent,))
        return got


def _result(
    ds: Dataset, space: RankSpace, per_class: bool, selected, singletons, pairs, pair_entries
) -> MiningResult:
    """The MiningResult of the selected itemset rows (support, r1, r2).

    Rows come grouped by ascending class when per_class is set. singletons
    and pairs = (sorted pair keys, their per-class counts) hold full-data
    counts covering every selected itemset; pair_entries is the number of
    distinct pairs counted during selection.
    """
    support, r1, r2 = selected
    itemsets = space.itemsets(support, r1, r2)
    keys, pair_counts = pairs
    is_pair = r2 >= 0
    counts = singletons[r1 // space.num_classes]
    at = np.searchsorted(keys, _pair_keys(space, r1[is_pair], r2[is_pair]))
    counts[is_pair] = pair_counts[at]
    grouped = None
    if per_class:
        bounds = np.searchsorted(r1 % space.num_classes, np.arange(space.num_classes + 1)).tolist()
        grouped = {c: itemsets[bounds[c] : bounds[c + 1]] for c in range(space.num_classes)}
    return MiningResult(
        schema=ds.schema,
        n=ds.n,
        class_totals=ds.class_counts(),
        itemsets=None if per_class else itemsets,
        per_class=grouped,
        table_stats=TableStats(len(singletons), pair_entries),
        _counts={its.antecedent: row for its, row in zip(itemsets, counts)},
    )


def mine_frequent(ds: Dataset, config: MiningConfig) -> MiningResult:
    """Mine the d_freq strongest class itemsets of size one and two.

    Global mode keeps one pool where pairs may evict main effects; per-class
    mode gives every class its own pool of max(1, d_freq // num_classes).
    With config.subsample set, selection runs on a with-replacement
    subsample and all surviving counts are then recomputed exactly in one
    pass over the full data.
    """
    space = RankSpace(ds.schema)
    num_classes = ds.num_classes
    count_ds = ds
    if config.subsample is not None:
        count_ds = subsample(ds, config.subsample, config.seed)
    # global mode is per-class mode with every class in group 0
    capacity = config.per_class_capacity(num_classes) if config.per_class else config.d_freq

    def top(support, r1):
        groups = r1 % num_classes if config.per_class else np.zeros_like(r1)
        return top_per_group(support, groups, capacity)

    singletons = count_singletons(count_ds, space)
    support = singletons.ravel()
    # a singleton outside its group's pool stays out once pairs join the race
    frequent = np.sort(top(support, np.arange(len(support))))
    (support, r1, r2), keys, counts = _count_candidates(count_ds, space, singletons, frequent)
    keep = top(support, r1)
    pair_entries = len(keys)

    if config.subsample is not None:
        # selection was approximate; recount what survived on the full data
        keep = np.sort(keep)  # back in rank order
        r1, r2 = r1[keep], r2[keep]
        singletons = count_singletons(ds, space)
        is_pair = r2 >= 0
        keys, rows = _distinct(_pair_keys(space, r1[is_pair], r2[is_pair]))
        counts = count_pairs(ds, np.column_stack(np.divmod(keys, space.total_items)), space)
        support = singletons.ravel()[r1]
        support[is_pair] = counts[rows, r1[is_pair] % num_classes]
        keep = top(support, r1)
    selected = support[keep], r1[keep], r2[keep]
    return _result(ds, space, config.per_class, selected, singletons, (keys, counts), pair_entries)


def mine_with_thresholds(ds: Dataset, minsupp: float) -> MiningResult:
    """Classic minimum-support mining (reference path).

    minsupp is a fraction of the database size. The itemsets come in
    enumeration order and their number is data dependent rather than fixed;
    rules.generate_rules_threshold selects the rules. Support is
    anti-monotone, so the frequent pairs are exactly the candidates above
    the floor.
    """
    if not 0 < minsupp <= 1:
        raise UsageError("minsupp must lie in (0, 1]")
    space = RankSpace(ds.schema)
    singletons = count_singletons(ds, space)
    floor = minsupp * ds.n - 1e-9
    frequent = np.flatnonzero(singletons.ravel() >= floor)
    (support, r1, r2), keys, counts = _count_candidates(ds, space, singletons, frequent)
    kept = support >= floor  # rows are in rank order
    selected = support[kept], r1[kept], r2[kept]
    return _result(ds, space, False, selected, singletons, (keys, counts), len(keys))
