"""Counting, candidate generation, top-K selection, and the mining loop."""

import dataclasses
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from araf import mining
from araf.bench import _oracle_ranks, brute_force_topk
from araf.data import binary_dataset, Column, ColumnKind, Dataset, Schema
from araf.errors import DataError, UsageError
from araf.mining import (
    BLOCK_ROWS,
    ClassItemset,
    MiningConfig,
    RankSpace,
    Scoring,
    canonical_antecedent,
    count_pairs,
    count_singletons,
    generate_pair_candidates,
    mine_frequent,
    mine_with_thresholds,
    top_per_group,
)
from araf.rules import generate_rules_threshold, select_rules, select_rules_reluctant
from araf.sampling import subsample


def random_dataset(rng, n=None, p=None, max_cats=4, max_classes=3):
    n = n or int(rng.integers(30, 200))
    p = p or int(rng.integers(2, 8))
    ncls = int(rng.integers(2, max_classes + 1))
    cols = []
    specs = []
    for j in range(p):
        k = int(rng.integers(2, max_cats + 1))
        specs.append(
            Column("X%d" % (j + 1), ColumnKind.CATEGORICAL, tuple(str(c) for c in range(k)))
        )
        cols.append(rng.integers(0, k, size=n).astype(np.int64))
    labels = rng.integers(0, ncls, size=n).astype(np.int64)
    schema = Schema(tuple(specs), "Y", tuple(str(c) for c in range(ncls)))
    return Dataset(schema, tuple(cols), labels)


def categorical_dataset(sizes, rows, labels, num_classes):
    """A dataset with the given category counts per column, used or not."""
    specs = tuple(
        Column("X%d" % (j + 1), ColumnKind.CATEGORICAL, tuple(str(c) for c in range(k)))
        for j, k in enumerate(sizes)
    )
    cols = tuple(np.array([r[j] for r in rows], dtype=np.int64) for j in range(len(sizes)))
    schema = Schema(specs, "Y", tuple(str(c) for c in range(num_classes)))
    return Dataset(schema, cols, np.array(labels, dtype=np.int64))


def random_config(rng):
    d_freq = int(rng.integers(2, 30))
    d_conf = int(rng.integers(1, d_freq + 1))
    per_class = bool(rng.integers(0, 2))
    scoring = rng.choice([Scoring.CONFIDENCE, Scoring.RELATIVE_CONFIDENCE, Scoring.LIFT])
    reluctant = per_class and bool(rng.integers(0, 2))
    return MiningConfig(
        d_freq, d_conf, per_class=per_class, scoring=Scoring(scoring), reluctant=reluctant
    )


def mined_keys(itemsets):
    return [(its.antecedent, its.class_id, its.support) for its in itemsets]


def rule_keys(rules):
    return [
        (r.antecedent, r.class_id, r.support, r.confidence, r.rconf, r.lift)
        for r in rules
    ]


class TestConfig:
    def test_capacity_splits_evenly(self):
        assert MiningConfig(45, 5, per_class=True).per_class_capacity(3) == 15

    def test_capacity_floor_is_one(self):
        assert MiningConfig(5, 1, per_class=True).per_class_capacity(7) == 1

    def test_dconf_le_dfreq(self):
        with pytest.raises(UsageError):
            MiningConfig(5, 6)

    def test_reluctant_needs_per_class(self):
        with pytest.raises(UsageError):
            MiningConfig(5, 5, reluctant=True, per_class=False)


class TestCanonicalAntecedent:
    def test_sorts_by_feature(self):
        assert canonical_antecedent([(3, 1), (0, 2)]) == ((0, 2), (3, 1))

    def test_same_feature_twice_rejected(self):
        with pytest.raises(Exception):
            canonical_antecedent([(1, 0), (1, 1)])


class TestRankSpace:
    def test_ranks_are_unique_and_stratified(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=40, p=4)
        space = RankSpace(ds.schema)
        num_classes = ds.num_classes
        # every singleton row (c, i, i), then every same-class pair of items
        # over distinct features, in every class
        items = np.arange(space.total_items)
        a, b = np.triu_indices(space.total_items, 1)
        distinct = space.features[a] != space.features[b]
        a = np.concatenate([items, a[distinct]])
        b = np.concatenate([items, b[distinct]])
        classes = np.repeat(np.arange(num_classes), len(a))
        a, b = np.tile(a, num_classes), np.tile(b, num_classes)
        itemsets = space.itemsets(np.zeros(len(a), dtype=np.int64), classes, a, b)
        rank_of = _oracle_ranks([len(col.categories) for col in ds.schema.features], num_classes)
        for its, c, x, y in zip(itemsets, classes.tolist(), a.tolist(), b.tolist()):
            # each itemset names the items and the class of its row
            assert its.class_id == c
            names = [(int(space.features[i]), int(space.categories[i])) for i in {x, y}]
            assert its.antecedent == tuple(sorted(names))
            assert its.rank == rank_of(its.antecedent, c)
            for f, cat in its.antecedent:
                assert 0 <= cat < len(ds.schema.features[f].categories)
            if its.size == 2:
                assert its.antecedent[0][0] < its.antecedent[1][0]
        singles = [its.rank for its in itemsets if its.size == 1]
        pairs = [its.rank for its in itemsets if its.size == 2]
        assert len(singles) == space.total_items * num_classes
        assert len(set(singles)) == len(singles)
        assert len(set(pairs)) == len(pairs)
        # every single-item rank precedes every pair rank
        assert max(singles) < min(pairs)


def lexsort_top(support, groups, capacity):
    """top_per_group as a two-key lexsort of the rows: group, then support descending, then row order."""
    order = np.lexsort((-support, groups))
    sorted_groups = groups[order]
    place = np.arange(len(order)) - np.searchsorted(sorted_groups, sorted_groups)
    return order[place < capacity]


@st.composite
def pools(draw):
    """Supports and group ids of a pool in rank order.

    Few distinct supports, so ties are common; group ids from a drawn subset
    of 0-5, so some groups are empty."""
    n = draw(st.integers(0, 60))
    top = draw(st.sampled_from([0, 1, 4, 1000]))
    ids = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    support = draw(st.lists(st.integers(0, 4) | st.integers(0, top), min_size=n, max_size=n))
    groups = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    return np.array(support, dtype=np.int64), np.array(groups, dtype=np.int64)


def select(supports, ranks, capacity, pairs=()):
    """(support, r1, r2) of the top itemsets among singletons of the given
    ranks plus pairs given as (support, r1, r2), all in one group."""
    rows = sorted(
        [(s, r, -1) for s, r in zip(supports, ranks)] + list(pairs),
        key=lambda row: (row[2] >= 0, row[1], row[2]),  # rank order
    )
    support, r1, r2 = (np.array(col, dtype=np.int64) for col in zip(*rows))
    keep = top_per_group(support, np.zeros_like(r1), capacity)
    return [(int(support[i]), int(r1[i]), int(r2[i])) for i in keep]


class TestTopK:
    def test_keeps_strongest_by_support(self):
        got = select([5, 9, 1, 7], range(4), 2)
        assert [(s, r) for s, r, _ in got] == [(9, 1), (7, 3)]

    def test_tie_breaks_toward_smaller_rank(self):
        got = select([4, 4, 4], [9, 2, 5], 2)
        assert [(s, r) for s, r, _ in got] == [(4, 2), (4, 5)]

    def test_eviction_respects_tie_break(self):
        # same support: the smaller rank wins, whatever the input order
        assert select([4, 4, 4], [9, 10, 2], 1) == [(4, 2, -1)]
        # a pair ranks after every singleton, even one with a larger r1
        assert select([4], [9], 1, pairs=[(4, 0, 1)]) == [(4, 9, -1)]
        # pairs of equal support order by r1, then r2
        got = select([], [], 2, pairs=[(4, 3, 1), (4, 2, 7), (4, 2, 5)])
        assert got == [(4, 2, 5), (4, 2, 7)]

    def test_capacity_validated(self):
        with pytest.raises(UsageError):
            select([1], [0], 0)

    def test_each_group_keeps_its_own_capacity(self):
        support = np.array([1, 9, 8, 7, 2, 3], dtype=np.int64)
        groups = np.array([1, 0, 0, 0, 1, 1])
        keep = top_per_group(support, groups, 2)
        assert keep.tolist() == [1, 2, 5, 4]

    @settings(max_examples=400, deadline=None)
    @given(pools(), st.integers(1, 8))
    @example((np.array([3, 3, 0, 3]), np.array([2, 0, 2, 0])), 1)
    def test_equals_a_two_key_lexsort(self, pool, capacity):
        support, groups = pool
        assert top_per_group(support, groups, capacity).tolist() == lexsort_top(support, groups, capacity).tolist()


def row_mask_counts(ds, pairs):
    """Per-class joint counts of item-index pairs, one boolean row mask each."""
    items = [(j, cat) for j, col in enumerate(ds.schema.features) for cat in range(len(col.categories))]
    out = np.zeros((len(pairs), ds.num_classes), dtype=np.int64)
    for k, (a, b) in enumerate(pairs):
        (fa, ca), (fb, cb) = items[a], items[b]
        mask = (ds.columns[fa] == ca) & (ds.columns[fb] == cb)
        out[k] = np.bincount(ds.labels[mask], minlength=ds.num_classes)
    return out


def antecedent_mask(ds, antecedent):
    mask = np.ones(ds.n, dtype=bool)
    for f, cat in antecedent:
        mask &= ds.columns[f] == cat
    return mask


@st.composite
def pair_count_cases(draw):
    """A random table and a list of item-index pairs, repeats and same-item
    or same-feature pairs allowed."""
    num_classes = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n = draw(st.integers(0, 200))
    rows = [[draw(st.integers(0, k - 1)) for k in sizes] for _ in range(n)]
    labels = [draw(st.integers(0, num_classes - 1)) for _ in range(n)]
    item = st.integers(0, sum(sizes) - 1)
    pairs = draw(st.lists(st.tuples(item, item), max_size=20))
    return categorical_dataset(sizes, rows, labels, num_classes), pairs


def block_crossing_case():
    """Three blocks of rows, the last one partial, so counts add up across
    block boundaries and across the padding of every class's run."""
    rng = np.random.default_rng(17)
    n = 2 * BLOCK_ROWS + 1234
    sizes = [3, 2, 4]
    specs = tuple(
        Column("X%d" % (j + 1), ColumnKind.CATEGORICAL, tuple(str(c) for c in range(k)))
        for j, k in enumerate(sizes)
    )
    cols = tuple(rng.integers(0, k, size=n) for k in sizes)
    ds = Dataset(Schema(specs, "Y", ("a", "b", "c")), cols, rng.integers(0, 3, size=n))
    return ds, [(a, b) for a in range(9) for b in range(9)]


def count_pairs_cold_and_warm(ds, pairs):
    """count_pairs(ds, pairs) on a fresh copy of ds, which holds no bit set
    yet (cold), and on a copy whose held bit sets unrelated calls built first,
    in another order (warm)."""
    cold = count_pairs(Dataset(ds.schema, ds.columns, ds.labels), pairs)
    warm = Dataset(ds.schema, ds.columns, ds.labels)
    items = np.arange(RankSpace(ds.schema).total_items)[::-1]
    count_pairs(warm, np.column_stack([items[::2], items[::2]]))
    count_pairs(warm, np.column_stack([items, items[::-1]]))
    return [cold, count_pairs(warm, pairs)]


class SetOnce(dict):
    """A dict that refuses to set a key twice: a table's class order, its
    RankSpace or an item's bit set built a second time fails the test that
    holds it."""

    def __setitem__(self, key, value):
        if key in self:
            raise AssertionError("%r built again" % (key,))
        super().__setitem__(key, value)


def held_items(ds):
    """The (feature, category) items whose bit sets ds.item_bits holds."""
    return {key for key in ds.item_bits if isinstance(key, tuple)}


def items_of(ds, pairs):
    """The (feature, category) items named by item-index pairs."""
    return {RankSpace(ds.schema).items[i] for i in np.unique(pairs).tolist()}


@st.composite
def call_sequences(draw):
    """A random table and a sequence of overlapping count_pairs calls on it.

    Row counts on either side of a 64-bit word and across row blocks; 1 to
    70 classes, some of them absent from the labels."""
    n = draw(st.sampled_from([1, 63, 64, 65, 2 * BLOCK_ROWS + 1234]) | st.integers(0, 200))
    num_classes = draw(st.integers(1, 70))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seen = rng.choice(num_classes, size=draw(st.integers(1, num_classes)), replace=False)
    cols = tuple(rng.integers(0, k, size=n) for k in sizes)
    specs = tuple(
        Column("X%d" % (j + 1), ColumnKind.CATEGORICAL, tuple(str(c) for c in range(k)))
        for j, k in enumerate(sizes)
    )
    schema = Schema(specs, "Y", tuple(str(c) for c in range(num_classes)))
    ds = Dataset(schema, cols, rng.choice(seen, size=n))
    item = st.integers(0, sum(sizes) - 1)
    calls = draw(st.lists(st.lists(st.tuples(item, item), max_size=12), min_size=1, max_size=5))
    return ds, calls


class TestCounting:
    def test_singleton_hand_count(self):
        x = np.array([[0, 1], [0, 0], [1, 1], [0, 1]])
        y = np.array([0, 1, 1, 0])
        ds = binary_dataset(x, y, class_names=("a", "b"))
        table = count_singletons(ds)
        offsets = RankSpace(ds.schema).offsets
        assert table[offsets[0] + 0, 0] == 2  # rows 0 and 3
        assert table[offsets[0] + 0, 1] == 1  # row 1
        assert table[offsets[1] + 1, 0] == 2
        assert table[offsets[1] + 0, 0] == 0
        # each feature's items partition the rows of every class
        assert table[offsets[0] : offsets[1]].sum(axis=0).tolist() == [2, 2]
        assert table.dtype == np.int64

    def test_singletons_include_zero_cells(self):
        ds = binary_dataset(np.ones((3, 1), dtype=int), np.zeros(3, dtype=int))
        table = count_singletons(ds)
        assert table.shape == (2, 1)  # categories 0 and 1, one class
        assert set(table.ravel().tolist()) == {0, 3}

    def test_singletons_cross_blocks(self):
        ds, _ = block_crossing_case()
        table = count_singletons(ds)
        offsets = RankSpace(ds.schema).offsets
        for f, col in enumerate(ds.columns):
            for cat in range(len(ds.schema.features[f].categories)):
                want = np.bincount(ds.labels[col == cat], minlength=3)
                assert table[offsets[f] + cat].tolist() == want.tolist()

    def test_pair_hand_count(self):
        x = np.array([[0, 1, 1], [0, 1, 0], [1, 1, 1], [0, 0, 1]])
        y = np.array([0, 0, 1, 1])
        ds = binary_dataset(x, y, class_names=("a", "b"))
        # item index of (feature f, category c) is 2 * f + c
        for counts in count_pairs_cold_and_warm(ds, [[0, 3], [3, 5]]):
            assert counts.tolist() == [
                [2, 0],  # (0,0)&(1,1): rows 0,1
                [1, 1],  # (1,1)&(2,1): rows 0,2
            ]

    def test_pair_counts_cover_all_classes(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        space = RankSpace(ds.schema)
        # every pair of items over distinct features
        pairs = np.unique(generate_pair_candidates(np.arange(space.pair_base), space)[:, 1:], axis=0)
        counts = count_pairs(ds, pairs)
        assert counts.shape == (len(pairs), ds.num_classes)
        for (a, b), vec in zip(pairs, counts):
            (fa, fb), (ca, cb) = space.features[[a, b]], space.categories[[a, b]]
            mask = (ds.columns[fa] == ca) & (ds.columns[fb] == cb)
            assert vec.sum() == mask.sum()

    def test_class_absent_from_a_block_counts_zero(self):
        # class 1 occurs only in the second block of rows, class 0 only in the first
        n = BLOCK_ROWS + 5
        x = np.ones((n, 2), dtype=int)
        y = np.zeros(n, dtype=int)
        y[BLOCK_ROWS:] = 1
        ds = binary_dataset(x, y, class_names=("a", "b", "c"))
        for counts in count_pairs_cold_and_warm(ds, [[1, 3], [0, 3]]):
            assert counts.tolist() == [[BLOCK_ROWS, 5, 0], [0, 0, 0]]

    @pytest.mark.parametrize(
        "make",
        [lambda: random_dataset(np.random.default_rng(3)), lambda: block_crossing_case()[0]],
        ids=["random", "block-crossing"],
    )
    def test_an_item_paired_with_itself_counts_its_singleton(self, make):
        ds = make()
        items = np.arange(RankSpace(ds.schema).total_items)
        for got in count_pairs_cold_and_warm(ds, np.column_stack([items, items])):
            assert got.tolist() == count_singletons(ds).tolist()

    @settings(max_examples=100, deadline=None)
    @given(pair_count_cases())
    @example(block_crossing_case())
    def test_pair_counts_equal_row_masks(self, case):
        ds, pairs = case
        want = row_mask_counts(ds, pairs).tolist()
        for got in count_pairs_cold_and_warm(ds, pairs):
            assert got.dtype == np.int64
            assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(call_sequences())
    def test_call_sequences_on_one_table_equal_row_masks(self, case):
        ds, calls = case
        for pairs in calls:
            assert count_pairs(ds, pairs).tolist() == row_mask_counts(ds, pairs).tolist()

    def test_a_repeated_call_adds_nothing_to_the_held_index(self):
        ds, pairs = block_crossing_case()
        pairs = pairs[:20]
        first = count_pairs(ds, pairs)
        held = dict(ds.item_bits)
        object.__setattr__(ds, "item_bits", SetOnce(held))
        assert count_pairs(ds, pairs).tolist() == first.tolist()
        assert count_pairs(ds, pairs[::-1]).tolist() == first[::-1].tolist()
        assert ds.item_bits.keys() == held.keys()
        assert all(ds.item_bits[key] is held[key] for key in held)
        assert held_items(ds) == items_of(ds, pairs)

    def test_repeated_mining_calls_hold_one_rank_space(self):
        ds, _ = block_crossing_case()
        object.__setattr__(ds, "item_bits", SetOnce())
        config = MiningConfig(6, 3, per_class=True)
        results = []
        for _ in range(2):
            count_singletons(ds)
            count_pairs(ds, [(0, 3)])
            results.append(mine_frequent(ds, config))
            results.append(mine_with_thresholds(ds, 0.2))
        spaces = [value for value in ds.item_bits.values() if isinstance(value, RankSpace)]
        assert len(spaces) == 1
        assert all(result.space is spaces[0] for result in results)

    def test_threads_sharing_a_table_count_alike(self):
        table, pairs = block_crossing_case()
        shares = [[pairs[k::7] for k in range(j, 21, 4)] for j in range(4)]
        want = [[row_mask_counts(table, call).tolist() for call in share] for share in shares]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):  # each time on a fresh table, whose first calls race to build
                ds = Dataset(table.schema, table.columns, table.labels)
                object.__setattr__(ds, "item_bits", SetOnce())
                start = threading.Barrier(len(shares), timeout=60)

                def count_share(share):
                    start.wait()
                    return [count_pairs(ds, call).tolist() for call in share]

                with ThreadPoolExecutor(max_workers=len(shares)) as pool:
                    futures = [pool.submit(count_share, share) for share in shares]
                    assert [future.result(timeout=60) for future in futures] == want
                assert held_items(ds) == items_of(ds, pairs)
        finally:
            sys.setswitchinterval(interval)


def loop_pair_candidates(frequent, space):
    """generate_pair_candidates as a double loop over the distinct singleton ranks, sorted by pair rank."""
    c = space.num_classes
    ranks = sorted(set(frequent))
    rows = [(r1 % c, r1 // c, r2 // c) for r1 in ranks for r2 in ranks
            if r1 % c == r2 % c and r1 // c < r2 // c and space.features[r1 // c] != space.features[r2 // c]]
    return sorted(rows, key=lambda row: space.pair_base * (1 + row[1] * c + row[0]) + row[2] * c + row[0])


@st.composite
def singleton_sets(draw):
    """A RankSpace of 1-5 features with 1-4 categories and 1-3 classes, and singleton ranks drawn from it, repeats included."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    specs = tuple(Column("x%d" % f, ColumnKind.CATEGORICAL, tuple(map(str, range(k)))) for f, k in enumerate(sizes))
    space = RankSpace(Schema(specs, "y", tuple(map(str, range(draw(st.integers(1, 3)))))))
    return draw(st.lists(st.integers(0, space.pair_base - 1), max_size=40)), space


class TestPairCandidates:
    @settings(max_examples=300, deadline=None)
    @given(singleton_sets())
    def test_equals_a_double_loop(self, case):
        frequent, space = case
        got = generate_pair_candidates(frequent, space)
        assert got.dtype == np.int64 and got.shape[1:] == (3,)
        assert [tuple(row) for row in got.tolist()] == loop_pair_candidates(frequent, space)

    def rank(self, ds, item, class_id):
        space = RankSpace(ds.schema)
        return (int(space.offsets[item[0]]) + item[1]) * space.num_classes + class_id

    def test_same_class_distinct_features_only(self):
        ds = binary_dataset(np.zeros((2, 3), dtype=int), np.array([0, 1]))
        fs1 = [
            self.rank(ds, (0, 0), 0),
            self.rank(ds, (0, 1), 0),
            self.rank(ds, (1, 0), 0),
            self.rank(ds, (2, 1), 1),
        ]
        got = generate_pair_candidates(fs1, RankSpace(ds.schema))
        # rows are (class, first item, second item); item index is 2 * feature + category
        anteds = [tuple(row) for row in got.tolist()]
        # (0,0)x(0,1) shares a feature; class-1 singleton has no partner
        assert (0, 0, 2) in anteds
        assert (0, 1, 2) in anteds
        assert len(anteds) == 2

    def test_empty_for_single_item(self):
        ds = binary_dataset(np.zeros((2, 2), dtype=int), np.array([0, 1]))
        got = generate_pair_candidates([self.rank(ds, (0, 0), 0)], RankSpace(ds.schema))
        assert got.shape == (0, 3)

    def test_output_sorted_by_rank_and_unique(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        space = RankSpace(ds.schema)
        support = count_singletons(ds).ravel()
        fs1 = top_per_group(support, np.zeros_like(support), 12)
        got = generate_pair_candidates(np.concatenate([fs1, fs1]), space)
        c = space.num_classes
        rank_list = [space.pair_base * (1 + a * c + k) + b * c + k for k, a, b in got.tolist()]
        assert rank_list == sorted(rank_list)
        keys = [tuple(row) for row in got.tolist()]
        assert len(set(keys)) == len(keys)


class TestMineFrequent:
    @pytest.mark.parametrize(
        "mine",
        [lambda ds: mine_frequent(ds, MiningConfig(4, 2)),
         lambda ds: mine_frequent(ds, MiningConfig(4, 2, subsample=3)),
         lambda ds: mine_with_thresholds(ds, 0.5)],
        ids=["top-k", "subsample", "threshold"],
    )
    def test_a_table_without_feature_columns_is_refused(self, mine):
        ds = Dataset(Schema((), "Y", ("a", "b")), (), np.array([0, 1, 1]))
        with pytest.raises(DataError, match="^mining needs at least one feature column$"):
            mine(ds)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(101)
        for trial in range(10):
            ds = random_dataset(rng)
            for _ in range(5):
                config = random_config(rng)
                got = mine_frequent(ds, config)
                want = brute_force_topk(ds, config)
                if config.per_class:
                    for c in range(ds.num_classes):
                        assert mined_keys(got.per_class[c]) == mined_keys(
                            want.per_class[c]
                        ), (trial, config)
                else:
                    assert mined_keys(got.itemsets) == mined_keys(want.itemsets)
                select = select_rules_reluctant if config.reluctant else select_rules
                assert rule_keys(select(got, config)) == rule_keys(want.rules), (
                    trial,
                    config,
                )

    def test_anti_monotone_pair_supports(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=150)
        config = MiningConfig(20, 5)
        result = mine_frequent(ds, config)
        table = count_singletons(ds)
        offsets = RankSpace(ds.schema).offsets
        for its in result.all_itemsets():
            if its.size != 2:
                continue
            for f, cat in its.antecedent:
                parent = table[offsets[f] + cat, its.class_id]
                assert its.support <= parent

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng)
        config = MiningConfig(15, 6, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE)
        a = mine_frequent(ds, config)
        b = mine_frequent(ds, config)
        assert mined_keys(a.all_itemsets()) == mined_keys(b.all_itemsets())
        assert rule_keys(select_rules(a, config)) == rule_keys(select_rules(b, config))

    def test_pool_sizes_respect_capacities(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, n=120, p=6)
        config = MiningConfig(9, 3, per_class=True)
        result = mine_frequent(ds, config)
        cap = config.per_class_capacity(ds.num_classes)
        for c in range(ds.num_classes):
            assert len(result.per_class[c]) <= cap
        flat = mine_frequent(ds, MiningConfig(9, 3))
        assert len(flat.itemsets) <= 9

    def test_subsample_counts_come_from_the_draw(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n=400)
        result = mine_frequent(ds, MiningConfig(10, 4, subsample=80, seed=5))
        # selection ran on the draw: the pool is the one mined from it directly
        drawn = mine_frequent(subsample(ds, 80, 5), MiningConfig(10, 4))
        assert {(i.antecedent, i.class_id) for i in result.all_itemsets()} == {
            (i.antecedent, i.class_id) for i in drawn.all_itemsets()
        }
        for its in drawn.all_itemsets():
            assert 0 <= its.support <= 80

    def test_exact_confidence_recounts_on_full_data(self):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, n=400)
        exact = mine_frequent(ds, MiningConfig(10, 4, subsample=80, seed=5))
        assert exact.n == ds.n
        assert exact.class_totals.tolist() == ds.class_counts().tolist()
        for its in exact.all_itemsets():
            mask = antecedent_mask(ds, its.antecedent)
            assert its.support == int((ds.labels[mask] == its.class_id).sum())

    def test_recount_is_one_pass_over_the_full_data(self, monkeypatch):
        rows = {"count_singletons": [], "count_pairs": []}
        for name, real in [("count_singletons", count_singletons), ("count_pairs", count_pairs)]:
            def spy(ds, *args, name=name, real=real):
                rows[name].append(ds.n)
                return real(ds, *args)

            monkeypatch.setattr(mining, name, spy)
        ds = random_dataset(np.random.default_rng(31), n=400)
        mine_frequent(ds, MiningConfig(10, 4, subsample=80, seed=5))
        # singletons are counted on the draw only; the recount is one count_pairs call
        assert rows == {"count_singletons": [80], "count_pairs": [80, 400]}


class TestWideIdDtypes:
    @pytest.mark.parametrize("num_categories, dtype", [(256, np.uint8), (257, np.uint16)])
    @pytest.mark.parametrize(
        "config",
        [
            MiningConfig(40, 10),
            MiningConfig(60, 12, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE, reluctant=True),
            MiningConfig(30, 8, scoring=Scoring.LIFT, subsample=500, seed=4),
        ],
        ids=["conf", "reluctant", "lift-subsample"],
    )
    def test_mining_equals_the_oracle_at_the_dtype_boundary(self, num_categories, dtype, config):
        rng = np.random.default_rng(num_categories)
        n = 1200
        # every category occurs, the last one (the widest id) most often
        wide = np.concatenate([np.arange(num_categories), np.full(n - num_categories, num_categories - 1)])
        schema = Schema(
            (Column("X1", ColumnKind.CATEGORICAL, tuple(str(c) for c in range(num_categories))),
             Column("X2", ColumnKind.CATEGORICAL, ("0", "1"))),
            "Y",
            ("0", "1", "2"),
        )
        ds = Dataset(schema, (rng.permutation(wide), rng.integers(0, 2, n)), rng.integers(0, 3, n))
        assert ds.columns[0].dtype == dtype and ds.columns[1].dtype == np.uint8
        result = mine_frequent(ds, config)
        assert any((0, num_categories - 1) in its.antecedent for its in result.all_itemsets())
        if config.subsample is not None:
            # the oracle counts full data only: the recounts must equal row masks
            for its in result.all_itemsets():
                want = np.bincount(ds.labels[antecedent_mask(ds, its.antecedent)], minlength=3)
                assert its.support == want[its.class_id]
            return
        select = select_rules_reluctant if config.reluctant else select_rules
        want = brute_force_topk(ds, config)
        assert result.itemsets == want.itemsets
        assert result.per_class == want.per_class
        assert select(result, config) == want.rules


@st.composite
def mining_cases(draw):
    """A random schema, a table over it (not every category or class need
    occur), and a mining config with any capacity from 1 to past the size of
    the itemset universe."""
    num_classes = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = draw(st.integers(1, 30))
    rows = [[draw(st.integers(0, k - 1)) for k in sizes] for _ in range(n)]
    labels = [draw(st.integers(0, num_classes - 1)) for _ in range(n)]
    ds = categorical_dataset(sizes, rows, labels, num_classes)
    pairs = sum(a * b for a, b in itertools.combinations(sizes, 2))
    universe = (sum(sizes) + pairs) * num_classes
    d_freq = draw(st.integers(1, universe + 3))
    per_class = draw(st.booleans())
    config = MiningConfig(
        d_freq,
        draw(st.integers(1, d_freq)),
        per_class=per_class,
        scoring=draw(st.sampled_from(list(Scoring))),
        reluctant=per_class and draw(st.booleans()),
    )
    return ds, config


class TestMineFrequentProperty:
    @settings(max_examples=300, deadline=None)
    @given(mining_cases())
    # a single class
    @example((categorical_dataset([2, 2], [[0, 1], [1, 1], [0, 0]], [0, 0, 0], 1),
              MiningConfig(4, 2, per_class=True, scoring=Scoring.LIFT)))
    # p = 1: no pairs to count
    @example((categorical_dataset([3], [[0], [2], [2], [1]], [0, 1, 1, 0], 2),
              MiningConfig(5, 3, scoring=Scoring.RELATIVE_CONFIDENCE)))
    # categories 2 and 3 of X1 and class 2 never occur
    @example((categorical_dataset([4, 2], [[0, 1], [1, 0], [1, 1]], [0, 1, 1], 3),
              MiningConfig(9, 4, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE,
                           reluctant=True)))
    # d_freq < num_classes
    @example((categorical_dataset([2, 2], [[0, 1], [1, 0], [1, 1]], [0, 1, 2], 3),
              MiningConfig(2, 1, per_class=True)))
    # d_freq larger than the itemset universe of (2 + 2 + 4) * 2 = 16
    @example((categorical_dataset([2, 2], [[0, 1], [1, 0], [1, 1]], [0, 1, 1], 2),
              MiningConfig(20, 20, scoring=Scoring.LIFT)))
    def test_mining_and_selection_equal_the_oracle(self, case):
        ds, config = case
        result = mine_frequent(ds, config)
        select = select_rules_reluctant if config.reluctant else select_rules
        want = brute_force_topk(ds, config)
        assert result.itemsets == want.itemsets
        assert result.per_class == want.per_class
        assert select(result, config) == want.rules


@st.composite
def subsample_cases(draw):
    """A mining case with subsample set: a draw smaller or larger than the table."""
    ds, config = draw(mining_cases())
    size = draw(st.integers(1, 2 * ds.n))
    return ds, dataclasses.replace(config, subsample=size, seed=draw(st.integers(0, 1000)))


class TestSubsampleRecountProperty:
    @settings(max_examples=200, deadline=None)
    @given(subsample_cases())
    @example((categorical_dataset([2, 3], [[0, 1], [1, 2], [1, 1], [0, 0], [1, 2]], [0, 1, 1, 0, 1], 2),
              MiningConfig(6, 3, subsample=3, seed=1)))
    @example((categorical_dataset([2, 3], [[0, 1], [1, 2], [1, 1], [0, 0], [1, 2]], [0, 1, 2, 0, 1], 3),
              MiningConfig(9, 4, per_class=True, scoring=Scoring.LIFT, subsample=4, seed=2)))
    @example((categorical_dataset([3, 2], [[0, 1], [2, 0], [1, 1], [0, 0], [2, 1]], [0, 1, 1, 0, 1], 2),
              MiningConfig(8, 4, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE,
                           reluctant=True, subsample=7, seed=3)))
    def test_recount_is_exact_on_the_full_data(self, case):
        ds, config = case
        result = mine_frequent(ds, config)
        drawn = mine_frequent(subsample(ds, config.subsample, config.seed),
                              dataclasses.replace(config, subsample=None))
        if config.per_class:
            pools = [result.per_class[c] for c in range(ds.num_classes)]
            drawn_pools = [drawn.per_class[c] for c in range(ds.num_classes)]
        else:
            pools, drawn_pools = [result.itemsets], [drawn.itemsets]
        for pool, drawn_pool in zip(pools, drawn_pools):
            # selection ran on the draw; the recount only reorders the pool
            assert len(pool) == len(drawn_pool)
            assert {(i.antecedent, i.class_id) for i in pool} == {
                (i.antecedent, i.class_id) for i in drawn_pool
            }
            assert [(-i.support, i.rank) for i in pool] == sorted((-i.support, i.rank) for i in pool)
        for its, counts in zip(result.all_itemsets(), result.counts):
            want = np.bincount(ds.labels[antecedent_mask(ds, its.antecedent)], minlength=ds.num_classes)
            assert counts.tolist() == want.tolist()
            assert its.support == want[its.class_id]


def threshold_reference(ds, minsupp, minconf):
    """Every 1- and 2-item class itemset with support >= minsupp * n, in rank
    order, and the (antecedent, class, support, class counts, rank) of each
    of their rules with confidence >= minconf, by enumerating all of them."""
    sizes = [len(col.categories) for col in ds.schema.features]
    items = [(j, cat) for j, k in enumerate(sizes) for cat in range(k)]
    num_classes = ds.num_classes
    floor = minsupp * ds.n - 1e-9
    antecedents = [(a,) for a in items] + [
        (a, b) for a, b in itertools.combinations(items, 2) if a[0] != b[0]
    ]
    frequent, rules = [], []
    for ant in antecedents:
        mask = np.ones(ds.n, dtype=bool)
        for f, cat in ant:
            mask &= ds.columns[f] == cat
        per_class = tuple(int((ds.labels[mask] == c).sum()) for c in range(num_classes))
        for c in range(num_classes):
            if per_class[c] < floor:
                continue
            ranks = [items.index(item) * num_classes + c for item in ant]
            rank = ranks[0] if len(ant) == 1 else len(items) * num_classes * (1 + ranks[0]) + ranks[1]
            frequent.append(ClassItemset(ant, c, per_class[c], rank))
            if per_class[c] / sum(per_class) + 1e-12 >= minconf:
                rules.append((ant, c, per_class[c], per_class, rank))
    frequent.sort(key=lambda its: its.rank)
    rules.sort(key=lambda r: r[4])
    return frequent, rules


class TestThresholdMining:
    def test_matches_enumeration_on_small_table(self):
        x = np.array(
            [
                [0, 1, 1],
                [0, 1, 0],
                [1, 1, 1],
                [0, 0, 1],
                [1, 0, 0],
                [0, 1, 1],
                [1, 1, 1],
                [0, 0, 0],
            ]
        )
        y = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        ds = binary_dataset(x, y, class_names=("a", "b"))
        minsupp, minconf = 0.25, 0.6
        result = mine_with_thresholds(ds, minsupp)
        rules = generate_rules_threshold(result, minconf)

        # enumerate every 1- and 2-item class itemset by brute force
        items = [(j, c) for j in range(3) for c in range(2)]
        expected = set()
        for size in (1, 2):
            for combo in itertools.combinations(items, size):
                if size == 2 and combo[0][0] == combo[1][0]:
                    continue
                mask = np.ones(8, dtype=bool)
                for f, cat in combo:
                    mask &= x[:, f] == cat
                for cls in (0, 1):
                    supp = int((y[mask] == cls).sum())
                    if supp / 8 >= minsupp:
                        expected.add((tuple(sorted(combo)), cls, supp))
        got = {(i.antecedent, i.class_id, i.support) for i in result.all_itemsets()}
        assert got == expected

        for r in rules:
            assert r.confidence >= minconf
        got_rules = {(r.antecedent, r.class_id) for r in rules}
        want_rules = set()
        for ant, cls, supp in expected:
            # denominator is the full antecedent marginal, infrequent
            # class parts included
            mask = np.ones(8, dtype=bool)
            for f, cat in ant:
                mask &= x[:, f] == cat
            if supp / int(mask.sum()) >= minconf:
                want_rules.add((ant, cls))
        assert got_rules == want_rules

    @settings(max_examples=200, deadline=None)
    @given(mining_cases(), st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    # every itemset that occurs at all is frequent, and every rule is kept
    @example((categorical_dataset([2, 3], [[0, 1], [1, 2], [1, 1]], [0, 1, 1], 2), None), 0.3, 0.0)
    # p = 1: no pairs to count
    @example((categorical_dataset([3], [[0], [2], [2], [1]], [0, 1, 1, 0], 2), None), 0.25, 0.5)
    def test_equals_enumeration(self, case, minsupp, minconf):
        ds = case[0]
        result = mine_with_thresholds(ds, minsupp)
        rules = generate_rules_threshold(result, minconf)
        itemsets, want_rules = threshold_reference(ds, minsupp, minconf)
        assert result.itemsets == itemsets
        assert [
            (r.antecedent, r.class_id, r.support, r.antecedent_class_counts, r.rank) for r in rules
        ] == want_rules

    def test_bad_thresholds_rejected(self):
        ds = binary_dataset(np.zeros((4, 2), dtype=int), np.array([0, 1, 0, 1]))
        with pytest.raises(UsageError):
            mine_with_thresholds(ds, 0.0)
        with pytest.raises(UsageError):
            generate_rules_threshold(mine_with_thresholds(ds, 0.5), 1.5)

    def test_counts_once_each_on_the_full_data(self, monkeypatch):
        rows = {"count_singletons": [], "count_pairs": []}
        for name, real in [("count_singletons", count_singletons), ("count_pairs", count_pairs)]:
            def spy(ds, *args, name=name, real=real):
                rows[name].append(ds.n)
                return real(ds, *args)

            monkeypatch.setattr(mining, name, spy)
        ds = random_dataset(np.random.default_rng(31), n=400)
        result = mine_with_thresholds(ds, 0.05)
        assert any(its.size == 2 for its in result.all_itemsets())
        # one singleton count and one pair count, both over all 400 rows
        assert rows == {"count_singletons": [400], "count_pairs": [400]}
