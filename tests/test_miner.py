"""Counting, candidate generation, top-K selection, and the mining loop."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from araf.bench import brute_force_topk
from araf.data import binary_dataset, Column, ColumnKind, Dataset, Schema
from araf.errors import UsageError
from araf.mining import (
    ClassItemset,
    MiningConfig,
    RankSpace,
    Scoring,
    TopKAccumulator,
    canonical_antecedent,
    count_pairs,
    count_singletons,
    generate_pair_candidates,
    iter_singletons,
    mine_frequent,
    mine_with_thresholds,
    select_topk,
)
from araf.rules import select_rules, select_rules_reluctant
from araf.sampling import SubsampleConfig, subsample


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
        ranks = RankSpace(ds.schema)
        singles = []
        for j, col in enumerate(ds.schema.features):
            for cat in range(len(col.categories)):
                for c in range(ds.num_classes):
                    singles.append(ranks.rank(((j, cat),), c))
        items = [
            (j, cat)
            for j, col in enumerate(ds.schema.features)
            for cat in range(len(col.categories))
        ]
        pairs = []
        for a, b in itertools.combinations(items, 2):
            if a[0] == b[0]:
                continue
            for c in range(ds.num_classes):
                pairs.append(ranks.rank((a, b), c))
        assert len(set(singles)) == len(singles)
        assert len(set(pairs)) == len(pairs)
        # every single-item rank precedes every pair rank
        assert max(singles) < min(pairs)


class TestTopK:
    def make(self, support, rank):
        return ClassItemset(((0, 0),), 0, support, rank)

    def test_keeps_strongest_by_support(self):
        got = select_topk([self.make(s, i) for i, s in enumerate([5, 9, 1, 7])], 2)
        assert [(x.support, x.rank) for x in got] == [(9, 1), (7, 3)]

    def test_tie_breaks_toward_smaller_rank(self):
        got = select_topk([self.make(4, 9), self.make(4, 2), self.make(4, 5)], 2)
        assert [(x.support, x.rank) for x in got] == [(4, 2), (4, 5)]

    def test_eviction_respects_tie_break(self):
        acc = TopKAccumulator(1)
        assert acc.push(self.make(4, 9))
        # same support, larger rank: must not replace the incumbent
        assert not acc.push(self.make(4, 10))
        # same support, smaller rank: must replace it
        assert acc.push(self.make(4, 2))
        assert [(x.support, x.rank) for x in acc.items()] == [(4, 2)]

    def test_capacity_validated(self):
        with pytest.raises(UsageError):
            TopKAccumulator(0)


class TestCounting:
    def test_singleton_hand_count(self):
        x = np.array([[0, 1], [0, 0], [1, 1], [0, 1]])
        y = np.array([0, 1, 1, 0])
        ds = binary_dataset(x, y, class_names=("a", "b"))
        table = count_singletons(ds)
        assert table.count((0, 0), 0) == 2  # rows 0 and 3
        assert table.count((0, 0), 1) == 1  # row 1
        assert table.count((1, 1), 0) == 2
        assert table.count((1, 0), 0) == 0
        assert list(table.class_totals) == [2, 2]

    def test_iter_singletons_includes_zero_cells(self):
        ds = binary_dataset(np.ones((3, 1), dtype=int), np.zeros(3, dtype=int))
        table = count_singletons(ds)
        all_cells = list(iter_singletons(table, ds.schema, RankSpace(ds.schema)))
        assert len(all_cells) == 2  # categories 0 and 1, one class
        assert {its.support for its in all_cells} == {0, 3}

    def test_pair_hand_count(self):
        x = np.array([[0, 1, 1], [0, 1, 0], [1, 1, 1], [0, 0, 1]])
        y = np.array([0, 0, 1, 1])
        ds = binary_dataset(x, y, class_names=("a", "b"))
        counts = count_pairs(ds, [((0, 0), (1, 1)), ((1, 1), (2, 1))])
        assert list(counts[((0, 0), (1, 1))]) == [2, 0]  # rows 0,1
        assert list(counts[((1, 1), (2, 1))]) == [1, 1]  # rows 0,2

    def test_pair_counts_cover_all_classes(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        table = count_singletons(ds)
        ranks = RankSpace(ds.schema)
        fs1 = select_topk(iter_singletons(table, ds.schema, ranks), 10)
        cands = generate_pair_candidates(fs1, ranks)
        counts = count_pairs(ds, [c.antecedent for c in cands])
        for ant, vec in counts.items():
            assert vec.shape == (ds.num_classes,)
            mask = np.ones(ds.n, dtype=bool)
            for f, cat in ant:
                mask &= ds.columns[f] == cat
            assert vec.sum() == mask.sum()


class TestPairCandidates:
    def ranks(self, ds):
        return RankSpace(ds.schema)

    def test_same_class_distinct_features_only(self):
        ds = binary_dataset(np.zeros((2, 3), dtype=int), np.array([0, 1]))
        r = self.ranks(ds)
        fs1 = [
            ClassItemset(((0, 0),), 0, 5, r.rank(((0, 0),), 0)),
            ClassItemset(((0, 1),), 0, 4, r.rank(((0, 1),), 0)),
            ClassItemset(((1, 0),), 0, 3, r.rank(((1, 0),), 0)),
            ClassItemset(((2, 1),), 1, 3, r.rank(((2, 1),), 1)),
        ]
        got = generate_pair_candidates(fs1, r)
        anteds = [(c.antecedent, c.class_id) for c in got]
        # (0,0)x(0,1) shares a feature; class-1 singleton has no partner
        assert (((0, 0), (1, 0)), 0) in anteds
        assert (((0, 1), (1, 0)), 0) in anteds
        assert len(anteds) == 2

    def test_empty_for_single_item(self):
        ds = binary_dataset(np.zeros((2, 2), dtype=int), np.array([0, 1]))
        r = self.ranks(ds)
        fs1 = [ClassItemset(((0, 0),), 0, 2, r.rank(((0, 0),), 0))]
        assert generate_pair_candidates(fs1, r) == []

    def test_output_sorted_by_rank_and_unique(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        r = self.ranks(ds)
        table = count_singletons(ds)
        fs1 = select_topk(iter_singletons(table, ds.schema, r), 12)
        got = generate_pair_candidates(fs1, r)
        rank_list = [c.rank for c in got]
        assert rank_list == sorted(rank_list)
        keys = [(c.antecedent, c.class_id) for c in got]
        assert len(set(keys)) == len(keys)


class TestMineFrequent:
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
        for its in result.all_itemsets():
            if its.size != 2:
                continue
            for item in its.antecedent:
                parent = table.count(item, its.class_id)
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
        assert result.subsample_meta is not None
        assert result.subsample_meta.n_prime == 80
        # selection ran on the draw: the pool is the one mined from it directly
        drawn = mine_frequent(subsample(ds, SubsampleConfig(80, 5)), MiningConfig(10, 4))
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
            mask = np.ones(ds.n, dtype=bool)
            for f, cat in its.antecedent:
                mask &= ds.columns[f] == cat
            assert its.support == int((ds.labels[mask] == its.class_id).sum())


def categorical_dataset(sizes, rows, labels, num_classes):
    """A dataset with the given category counts per column, used or not."""
    specs = tuple(
        Column("X%d" % (j + 1), ColumnKind.CATEGORICAL, tuple(str(c) for c in range(k)))
        for j, k in enumerate(sizes)
    )
    cols = tuple(np.array([r[j] for r in rows], dtype=np.int64) for j in range(len(sizes)))
    schema = Schema(specs, "Y", tuple(str(c) for c in range(num_classes)))
    return Dataset(schema, cols, np.array(labels, dtype=np.int64))


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
        result, rules = mine_with_thresholds(ds, minsupp, minconf)

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

    def test_bad_thresholds_rejected(self):
        ds = binary_dataset(np.zeros((4, 2), dtype=int), np.array([0, 1, 0, 1]))
        with pytest.raises(UsageError):
            mine_with_thresholds(ds, 0.0, 0.5)
        with pytest.raises(UsageError):
            mine_with_thresholds(ds, 0.5, 1.5)
