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

Counting and selection run on arrays. An itemset is a row (class, a, b)
of item indices (see RankSpace); a table's RankSpace is built once and held
in its item_bits dict, beside its bit sets. A singleton on item i is the
row (c, i, i). Each row travels with its per-class antecedent counts, and
its support is the entry for its own class. Singletons are counted with one
bincount per block of rows. A pool is picked with one sort on one int64 key
per row. All candidate pairs are counted together, the vertical way of
Eclat's tid-lists (Zaki 2000) and MAFIA's bitmaps (Burdick et al. 2001),
from bit sets that mining builds and keeps in the table's item_bits dict:
each item's rows in one class order of the rows, each class a run of whole
64-bit words, built the first time a count names the item.
A pair's count in class c is the popcount of the AND of its two items' bit
sets over class c's run. The kept bits cost one bit per row for each item
counted so far, plus 8 bytes per row for the class order (about 3.9 MB on a
400,000-row table whose recount touches 13 items), and every later count
on the same table reads them instead of the rows: the scorings mined from
one table, the full-data recount of each subsampled call, a grid over
d_freq and d_conf. Counts are exact integers at any n. A pool selected on
a subsample is recounted exactly on the full data in one count_pairs call
over the survivors' items; a bit set ANDed with itself is itself, so a row
(c, i, i) counts item i alone. The result holds the selected rows and their
count arrays.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema
from .errors import DataError, UsageError, check_mining_values
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
    the full data in one pass before scoring.
    """

    d_freq: int
    d_conf: int
    per_class: bool = False
    scoring: Scoring = Scoring.CONFIDENCE
    reluctant: bool = False
    subsample: "int | None" = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_mining_values(d_freq=self.d_freq, d_conf=self.d_conf)
        if self.reluctant and not self.per_class:
            raise UsageError("reluctant selection requires per_class mining")
        check_mining_values(subsample=self.subsample)

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

    Item i is category categories[i] of feature features[i], the pair
    items[i]; a feature's items are offsets[f] .. offsets[f + 1] - 1.
    Singleton (item i, class c) has rank i * num_classes + c; a pair whose
    singletons have ranks r1 < r2 has rank pair_base * (1 + r1) + r2, above
    every singleton.
    """

    def __init__(self, schema: Schema) -> None:
        sizes = [len(col.categories) for col in schema.features]
        self.offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self.total_items = int(self.offsets[-1])
        self.features = np.repeat(np.arange(len(sizes)), sizes)
        self.categories = np.arange(self.total_items) - self.offsets[self.features]
        self.items = list(zip(self.features.tolist(), self.categories.tolist()))
        self.num_classes = schema.num_classes
        self.pair_base = self.total_items * self.num_classes

    def ranks(self, classes, a, b) -> np.ndarray:
        """The ranks of parallel (class, a, b) rows.

        A row with b == a is the singleton on item a; any other row is the
        pair of items a < b.
        """
        r1 = a * self.num_classes + classes
        return np.where(a == b, r1, self.pair_base * (1 + r1) + b * self.num_classes + classes)

    def antecedent(self, a: int, b: int) -> Antecedent:
        """The (feature, category) items of a row's a and b; item a alone when b == a."""
        return (self.items[a],) if a == b else (self.items[a], self.items[b])

    def itemsets(self, support, classes, a, b) -> list[ClassItemset]:
        """The ClassItemsets of parallel (support, class, a, b) rows, in order."""
        ranks = self.ranks(classes, a, b)
        rows = zip(support.tolist(), classes.tolist(), ranks.tolist(), a.tolist(), b.tolist())
        return [ClassItemset(self.antecedent(x, y), c, s, r) for s, c, r, x, y in rows]


def top_per_group(support, groups, capacity: int) -> np.ndarray:
    """Indices of each group's `capacity` strongest rows.

    Rows must come in rank order, with non-negative integer supports and
    group ids, such as row counts and class ids. Strength is support
    descending, then rank ascending, which is the row order. Rows are
    sorted once, on one int64 key: group id, then support descending, then
    row position, which makes every key distinct, so any sort gives the one
    order. Indices come grouped by ascending group id, strongest first
    within each group.
    """
    if capacity < 1:
        raise UsageError("capacity must be >= 1")
    top = int(support.max(initial=0)) + 1
    key = groups.astype(np.int64) * top + (top - 1 - support)
    order = np.argsort(key * len(key) + np.arange(len(key)))
    sorted_groups = groups[order]
    place = np.arange(len(order)) - np.searchsorted(sorted_groups, sorted_groups)
    return order[place < capacity]


def require_features(schema: Schema) -> None:
    """Raise DataError when schema has no feature column to mine."""
    if not schema.p:
        raise DataError("mining needs at least one feature column")


def rank_space(ds: Dataset) -> RankSpace:
    """The RankSpace of ds's schema, built on the first call and held in ds.item_bits.

    It is built under the lock that guards the table's bit sets, so threads
    sharing ds build it once.
    """
    held = ds.item_bits
    with held.setdefault("lock", threading.Lock()):
        if "space" not in held:
            held["space"] = RankSpace(ds.schema)
        return held["space"]


def count_singletons(ds: Dataset) -> np.ndarray:
    """Every singleton's count, one bincount of (item, class) cells per block of rows.

    Returns the (total items, num classes) int64 array whose row
    offsets[f] + c (see RankSpace) holds category c of feature f; cells never
    observed are zero. Its ravel() is indexed by singleton rank.
    """
    ds.schema.require_categorical("mining")
    space = rank_space(ds)
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
    # without an index or inverse asked for, np.unique loads numpy.ma on first use
    ranks, _ = np.unique(np.asarray(frequent, dtype=np.int64).ravel(), return_inverse=True)
    classes, items = ranks % space.num_classes, ranks // space.num_classes
    # the singletons in (class, item) order: a singleton's partners are the
    # run of its class's items from the first item of the next feature on
    keys = np.sort(classes * space.total_items + items)
    start = np.searchsorted(keys, classes * space.total_items + space.offsets[space.features[items] + 1])
    partners = np.searchsorted(keys, (classes + 1) * space.total_items) - start
    first = np.repeat(np.arange(len(ranks)), partners)
    second = keys[np.arange(len(first)) - np.repeat(np.cumsum(partners) - partners - start, partners)]
    # ranks come in (first item, class) order and partners in item order,
    # which is pair rank order
    return np.column_stack([classes[first], items[first], second % space.total_items])


def _item_words(ds: Dataset, items) -> tuple[np.ndarray, np.ndarray]:
    """The bit sets of items over ds's rows in class order, stacked, and each class's first word.

    items are (feature, category) pairs. The rows are ordered stably by
    class, and each class's run is padded with empty slots to a whole number
    of 64-bit words, at least one, so that the first word of each class's
    run rises strictly. ds.item_bits holds the order, made on the first call
    with one stable argsort of the labels, and each item's words, built on
    the first call that names the item; the items one call adds to a
    feature share one gather of its column into class order. Threads
    sharing ds build each item once.
    """
    held = ds.item_bits
    with held.setdefault("lock", threading.Lock()):
        if "order" not in held:
            sizes = ds.class_counts()
            words = np.maximum(-(-sizes // 64), 1)
            padding = np.repeat(np.arange(len(sizes)), 64 * words - sizes)
            # a stable sort puts each class's padding labels after its rows
            slot_labels = np.concatenate([ds.labels, padding], dtype=ds.labels.dtype, casting="unsafe")
            layout = np.argsort(slot_labels, kind="stable")
            empty = np.flatnonzero(layout >= ds.n)
            layout[empty] = 0  # an empty slot gathers row 0, and its bit is cleared
            held["order"] = np.cumsum(words) - words, layout, empty
        starts, layout, empty = held["order"]
        new = {}
        for f, c in items:
            if (f, c) not in held:
                new.setdefault(f, []).append(c)
        hits = np.empty(len(layout), dtype=bool)
        for f, categories in new.items():
            gathered = ds.columns[f].take(layout)
            for c in categories:
                np.equal(gathered, c, out=hits)
                hits[empty] = False
                held[f, c] = np.packbits(hits).view(np.uint64)
        return np.stack([held[item] for item in items]), starts


def count_pairs(ds: Dataset, pairs) -> np.ndarray:
    """Joint per-class counts of two-item antecedents, from bit sets mining keeps in ds.item_bits.

    pairs is an (m, 2) array of item indices (see RankSpace); row k of the
    (m, num_classes) int64 result counts, per class, the rows holding both
    items of pair k. A row (i, i) counts item i alone, the singleton's
    per-class counts. Every class is counted, not only the class that
    proposed a candidate, because confidence needs the full antecedent
    marginal.

    Each item's bit set holds its rows in one class order of the table's
    rows, each class a run of whole 64-bit words (see _item_words). It is
    built on the first call that names the item and kept in the table's
    item_bits dict, at one bit per row per item on top of 8 bytes per row
    for the order. A later call on the same table, such as the recount of
    each subsampled mine_frequent call or another scoring mined from it,
    reads the kept words instead of the rows. A pair's class-c count is the
    popcount of the AND of its two items' bit sets, summed over class c's
    run into int64, CHUNK_WORDS words of ANDed pairs at a time.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    out = np.zeros((len(pairs), ds.num_classes), dtype=np.int64)
    if not len(pairs) or not ds.n:
        return out
    space = rank_space(ds)
    # the items named, in index order, and each one's place among them
    named = np.zeros(space.total_items, dtype=bool)
    named[pairs] = True
    bits, starts = _item_words(ds, [space.items[i] for i in np.flatnonzero(named).tolist()])
    first, second = (np.cumsum(named) - 1)[pairs].T
    step = max(1, CHUNK_WORDS // bits.shape[1])
    for k in range(0, len(pairs), step):
        both = np.bitwise_count(bits[first[k : k + step]] & bits[second[k : k + step]])
        out[k : k + step] = np.add.reduceat(both, starts, axis=1, dtype=np.int64)
    return out


def _count_rows(ds: Dataset, rows, space: RankSpace):
    """Each (class, a, b) row's per-class counts on ds, and how many distinct (a, b) were counted.

    The distinct antecedents are counted in one count_pairs call.
    """
    keys, inverse = np.unique(rows[:, 1] * space.total_items + rows[:, 2], return_inverse=True)
    return count_pairs(ds, np.column_stack(np.divmod(keys, space.total_items)))[inverse], len(keys)


@dataclass
class TableStats:
    """Counting-table sizes, recorded so memory claims are checkable.

    Both fields count antecedent keys: every possible (feature, category)
    slot for singletons, and each distinct counted pair antecedent. The
    per-class count vectors are the values behind those keys.
    """

    singleton_entries: int
    pair_entries: int


def _support(rows, counts) -> np.ndarray:
    """Each (class, a, b) row's count in its own class."""
    return counts[np.arange(len(rows)), rows[:, 0]]


@dataclass
class MiningResult:
    """The selected itemsets as (class, a, b) rows of item indices of space.

    Row i has per-class antecedent counts counts[i], its support among them,
    and rank ranks[i]. In per-class mode (class_pools) rows come grouped by
    ascending class, each pool strongest first. Counts, n and class_totals
    are on the full data, also when selection ran on a subsample. The
    ClassItemset views are built on each read: itemsets in global mode,
    per_class in per-class mode.
    """

    space: RankSpace
    n: int
    class_totals: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    ranks: np.ndarray
    table_stats: TableStats
    class_pools: bool

    @property
    def support(self) -> np.ndarray:
        return _support(self.rows, self.counts)

    def all_itemsets(self) -> list[ClassItemset]:
        return self.space.itemsets(self.support, *self.rows.T)

    @property
    def itemsets(self) -> "list[ClassItemset] | None":
        return None if self.class_pools else self.all_itemsets()

    @property
    def per_class(self) -> "dict[int, list[ClassItemset]] | None":
        if not self.class_pools:
            return None
        itemsets = self.all_itemsets()
        classes = range(self.space.num_classes)
        return {c: [its for its in itemsets if its.class_id == c] for c in classes}


def _mine(ds: Dataset, count_ds: Dataset, pick, per_class: bool) -> MiningResult:
    """Count singletons, pick, count their pairs, pick again; return the picks.

    pick(support, classes) takes rows in rank order and returns the indices
    of those it keeps, grouped by ascending class when per_class is set.
    Selection counts on count_ds. When that is not ds, the rows kept are
    recounted on ds in one count_pairs call and picked again.
    """
    require_features(ds.schema)
    singletons = count_singletons(count_ds)
    space = rank_space(ds)
    support = singletons.ravel()
    # a singleton left out of its pool stays out once pairs join the race
    frequent = np.sort(pick(support, np.arange(len(support)) % space.num_classes))
    items = frequent // space.num_classes
    pairs = generate_pair_candidates(frequent, space)
    pair_counts, pair_entries = _count_rows(count_ds, pairs, space)
    rows = np.concatenate([np.column_stack([frequent % space.num_classes, items, items]), pairs])
    counts = np.concatenate([singletons[items], pair_counts])
    keep = pick(_support(rows, counts), rows[:, 0])
    if count_ds is not ds:
        # selection was approximate; recount what survived on the full data
        rows = rows[np.sort(keep)]  # back in rank order
        counts, _ = _count_rows(ds, rows, space)
        keep = pick(_support(rows, counts), rows[:, 0])
    rows = rows[keep]
    return MiningResult(
        space=space,
        n=ds.n,
        class_totals=ds.class_counts(),
        rows=rows,
        counts=counts[keep],
        ranks=space.ranks(*rows.T),
        table_stats=TableStats(space.total_items, pair_entries),
        class_pools=per_class,
    )


def mine_frequent(ds: Dataset, config: MiningConfig) -> MiningResult:
    """Mine the d_freq strongest class itemsets of size one and two.

    Global mode keeps one pool where pairs may evict main effects; per-class
    mode gives every class its own pool of max(1, d_freq // num_classes).
    With config.subsample set, selection runs on a with-replacement
    subsample and all surviving counts are then recomputed exactly in one
    count_pairs pass over the full data, a singleton on item i as the pair
    (i, i); no whole-table singleton count is made.
    """
    count_ds = ds
    if config.subsample is not None:
        count_ds = subsample(ds, config.subsample, config.seed)
    # global mode is per-class mode with every class in group 0
    capacity = config.per_class_capacity(ds.num_classes) if config.per_class else config.d_freq

    def top(support, classes):
        groups = classes if config.per_class else np.zeros_like(classes)
        return top_per_group(support, groups, capacity)

    return _mine(ds, count_ds, top, config.per_class)


def mine_with_thresholds(ds: Dataset, minsupp: float) -> MiningResult:
    """Classic minimum-support mining (reference path).

    minsupp is a fraction of the database size. The itemsets come in
    enumeration order and their number is data dependent rather than fixed;
    rules.generate_rules_threshold selects the rules. Support is
    anti-monotone, so the frequent pairs are exactly the candidates above
    the floor.
    """
    check_mining_values(minsupp=minsupp)
    floor = minsupp * ds.n - 1e-9
    return _mine(ds, ds, lambda support, classes: np.flatnonzero(support >= floor), False)
