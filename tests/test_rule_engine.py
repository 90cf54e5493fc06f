"""Rule scoring and the two top-K selection policies."""

import math

import numpy as np
import pytest

from araf import rules as rules_module
from araf.bench import brute_force_topk, generate
from araf.data import binary_dataset
from araf.errors import DataError, UsageError
from araf.mining import (
    MiningConfig,
    MiningResult,
    RankSpace,
    Scoring,
    TableStats,
    count_pairs,
    mine_frequent,
    mine_with_thresholds,
)
from araf.rules import (
    confidence,
    generate_rules_threshold,
    lift,
    parse_rules_jsonl,
    relative_confidence,
    rules_to_jsonl,
    select_rules,
    select_rules_reluctant,
)


class TestConfidence:
    def test_fraction(self):
        assert confidence(4, 6) == pytest.approx(2 / 3)

    def test_zero_antecedent_rejected(self):
        with pytest.raises(DataError, match="^confidence undefined: antecedent never occurs$"):
            confidence(0, 0)


class TestRelativeConfidence:
    def test_posterior_over_prior_odds(self):
        # rule odds 4:2, class odds 5:5 -> ratio 2
        assert relative_confidence(4, 6, 5, 10) == pytest.approx(2.0)

    def test_uninformative_rule_scores_one(self):
        # confidence equals the class prior: 3/6 vs 5/10
        assert relative_confidence(3, 6, 5, 10) == pytest.approx(1.0)

    def test_pure_rule_finite_and_huge(self):
        got = relative_confidence(6, 6, 5, 10)
        assert math.isfinite(got)
        assert got > 1e10

    def test_monotone_in_support_at_fixed_antecedent(self):
        lo = relative_confidence(3, 10, 5, 100)
        hi = relative_confidence(7, 10, 5, 100)
        assert hi > lo


class TestLift:
    def test_ratio(self):
        assert lift(0.9, 3, 10) == pytest.approx(3.0)

    def test_one_at_prior(self):
        assert lift(0.5, 5, 10) == pytest.approx(1.0)

    def test_zero_class_rejected(self):
        with pytest.raises(DataError, match="^lift undefined: class never occurs$"):
            lift(0.5, 0, 10)


def small_result(per_class_lists, ds):
    """Assemble a per-class MiningResult directly from hand-picked per-class itemsets."""
    space = RankSpace(ds.schema)
    rows = []
    for c in sorted(per_class_lists):
        for its in per_class_lists[c]:
            items = [int(space.offsets[f]) + cat for f, cat in its.antecedent]
            rows.append([c, items[0], items[-1]])  # a singleton on item i is (c, i, i)
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return MiningResult(
        space=space,
        n=ds.n,
        class_totals=ds.class_counts(),
        rows=rows,
        counts=count_pairs(ds, rows[:, 1:]),
        ranks=space.ranks(*rows.T),
        table_stats=TableStats(0, int(np.sum(rows[:, 1] != rows[:, 2]))),
        class_pools=True,
    )


class TestSelectRules:
    def test_orders_by_score_then_rank(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(60, 4))
        y = rng.integers(0, 2, size=60)
        ds = binary_dataset(x, y)
        config = MiningConfig(12, 12)
        rules = select_rules(mine_frequent(ds, config), config)
        keys = [(-r.confidence, r.rank) for r in rules]
        assert keys == sorted(keys)

    def test_replication_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(40, 4))
        y = rng.integers(0, 3, size=40)
        ds1 = binary_dataset(x, y, class_names=("0", "1", "2"))
        ds3 = binary_dataset(
            np.repeat(x, 3, axis=0), np.repeat(y, 3), class_names=("0", "1", "2")
        )
        for scoring in (Scoring.CONFIDENCE, Scoring.RELATIVE_CONFIDENCE, Scoring.LIFT):
            config = MiningConfig(10, 6, per_class=True, scoring=scoring)
            got1 = select_rules(mine_frequent(ds1, config), config)
            got3 = select_rules(mine_frequent(ds3, config), config)
            assert [(r.antecedent, r.class_id) for r in got1] == [
                (r.antecedent, r.class_id) for r in got3
            ], scoring
            # counts scale exactly by three
            assert [r.support * 3 for r in got1] == [r.support for r in got3]

    def test_rule_for_absent_class_scores_zero_lift(self):
        # class "c" is declared but never observed
        x = np.array([[1], [1], [0], [0]])
        y = np.array([0, 0, 1, 1])
        ds = binary_dataset(x, y, class_names=("a", "b", "c"))
        config = MiningConfig(12, 12, scoring=Scoring.LIFT)
        rules = select_rules(mine_frequent(ds, config), config)
        absent = [r for r in rules if r.class_id == 2]
        assert absent, "zero-support itemsets for the declared class still score"
        assert all(r.lift == 0.0 and r.support == 0 for r in absent)


class TestRulesAreBuiltOnlyForOutput:
    @pytest.mark.parametrize("select", ["select_rules", "select_rules_reluctant", "generate_rules_threshold"])
    def test_one_build_rule_call_per_rule_returned(self, select, monkeypatch):
        calls = []
        build = rules_module.build_rule

        def counting_build(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(rules_module, "build_rule", counting_build)
        ds = generate("s1", 300, 5, 10)
        if select == "generate_rules_threshold":
            result = mine_with_thresholds(ds, 0.1)
            rules = generate_rules_threshold(result, 0.8)
        else:
            config = MiningConfig(45, 5, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE,
                                  reluctant=select == "select_rules_reluctant")
            result = mine_frequent(ds, config)
            rules = getattr(rules_module, select)(result, config)
        # far more itemsets than rules, so scoring through Rule objects would show
        assert 0 < len(rules) < len(result.all_itemsets()) // 2
        assert len(calls) == len(rules)


class TestReluctantGate:
    def test_equal_score_interaction_rejected(self):
        # X2 is constant, so (X1=v, X2=1) duplicates (X1=v) exactly
        rng = np.random.default_rng(2)
        x1 = rng.integers(0, 2, size=80)
        y = (x1 ^ (rng.random(80) < 0.2)).astype(int)
        x = np.column_stack([x1, np.ones(80, dtype=int)])
        ds = binary_dataset(x, y, class_names=("0", "1"))
        config = MiningConfig(
            8, 8, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE, reluctant=True
        )
        rules = select_rules_reluctant(mine_frequent(ds, config), config)
        ants = [r.antecedent for r in rules]
        assert all(len(a) == 1 for a in ants), ants
        # the plain selector on the same mining output does keep echoes
        plain = select_rules(mine_frequent(ds, config), config)
        assert any(len(r.antecedent) == 2 for r in plain)

    def test_strictly_better_interaction_admitted(self):
        # class 0 fires exactly when X1=1 and X2=1 jointly
        x = np.array(
            [[1, 1], [1, 1], [1, 1], [1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 0], [0, 0], [0, 0]]
        )
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        ds = binary_dataset(x, y, class_names=("0", "1"))
        config = MiningConfig(12, 12, per_class=True, reluctant=True)
        rules = select_rules_reluctant(mine_frequent(ds, config), config)
        by_key = {(r.antecedent, r.class_id): r for r in rules}
        joint = by_key[(((0, 1), (1, 1)), 0)]
        assert joint.confidence == pytest.approx(1.0)
        # both parents survive too (main effects are never gated)...
        assert (((0, 1),), 0) in by_key and (((1, 1),), 0) in by_key
        # ...and score strictly below the interaction
        for item in ((0, 1), (1, 1)):
            assert by_key[((item,), 0)].confidence < joint.confidence

    def test_missing_parent_does_not_block(self):
        # hand-built per-class pool holding an interaction whose parents were
        # never mined: the gate has nothing to compare against and admits it
        x = np.array([[1, 1], [1, 1], [1, 0], [0, 1]])
        y = np.array([0, 0, 1, 1])
        ds = binary_dataset(x, y, class_names=("0", "1"))
        config = MiningConfig(4, 2, per_class=True, reluctant=True)
        space = RankSpace(ds.schema)
        ant = ((0, 1), (1, 1))
        # items (0,1) and (1,1) have indices 1 and 3; the row is (class 0, 1, 3)
        (its,) = space.itemsets(np.array([2]), np.array([0]), np.array([1]), np.array([3]))
        assert (its.antecedent, its.class_id) == (ant, 0)
        pool = {0: [its], 1: []}
        result = small_result(pool, ds)
        rules = select_rules_reluctant(result, config)
        assert [(r.antecedent, r.class_id) for r in rules] == [(ant, 0)]

    def test_needs_per_class_output(self):
        ds = binary_dataset(np.zeros((4, 2), dtype=int), np.array([0, 1, 0, 1]))
        config = MiningConfig(4, 2)
        result = mine_frequent(ds, config)
        with pytest.raises(UsageError):
            select_rules_reluctant(result, config)


class TestUnbalancedContrast:
    def build(self):
        # 90/7/3 class mix; X1..X3 mark nested class-0 subsets with a little
        # leakage; X4 marks a small subset dominated by the rare class
        n = 100
        x = np.zeros((n, 4), dtype=int)
        y = np.zeros(n, dtype=int)
        y[90:97] = 1
        y[97:] = 2
        x[0:90, 0] = 1
        x[95, 0] = 1  # class-1 leak keeps the rule impure
        x[0:50, 1] = 1
        x[94, 1] = 1
        x[0:30, 2] = 1
        x[93, 2] = 1
        x[96:99, 3] = 1  # classes 1, 2, 2
        return binary_dataset(x, y, class_names=("0", "1", "2"))

    def test_per_class_rconf_surfaces_rare_class(self):
        ds = self.build()
        flat = MiningConfig(9, 3, scoring=Scoring.CONFIDENCE)
        flat_rules = select_rules(mine_frequent(ds, flat), flat)
        assert all(r.class_id == 0 for r in flat_rules)
        # the global pool never even counted a rare-class itemset
        assert all(
            i.class_id == 0 for i in mine_frequent(ds, flat).itemsets
        )

        split = MiningConfig(9, 3, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE)
        split_rules = select_rules(mine_frequent(ds, split), split)
        assert any(r.class_id == 2 for r in split_rules)


class TestThresholdRules:
    def test_exact_boundary_kept(self):
        from araf.mining import mine_with_thresholds

        x = np.array([[1], [1], [1], [1], [0], [0], [0], [0]])
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        ds = binary_dataset(x, y, class_names=("0", "1"))
        rules = generate_rules_threshold(mine_with_thresholds(ds, minsupp=0.125), minconf=0.75)
        keys = {(r.antecedent, r.class_id) for r in rules}
        # confidence of (X1=1)->0 is exactly 0.75
        assert (((0, 1),), 0) in keys


class TestSerialization:
    def test_jsonl_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, size=(50, 3))
        y = rng.integers(0, 2, size=50)
        ds = binary_dataset(x, y)
        config = MiningConfig(8, 5)
        rules = select_rules(mine_frequent(ds, config), config)
        text = rules_to_jsonl(rules, ds.schema)
        back = parse_rules_jsonl(text, ds.schema)
        assert back == [r.antecedent for r in rules]


class TestOracleScoreAgreement:
    def test_scores_match_reference_exactly(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            x = rng.integers(0, 2, size=(100, 5))
            y = rng.integers(0, 3, size=100)
            ds = binary_dataset(x, y, class_names=("0", "1", "2"))
            for scoring in (Scoring.CONFIDENCE, Scoring.RELATIVE_CONFIDENCE, Scoring.LIFT):
                config = MiningConfig(14, 9, per_class=True, scoring=scoring)
                got = select_rules(mine_frequent(ds, config), config)
                want = brute_force_topk(ds, config).rules
                assert [
                    (r.antecedent, r.class_id, r.confidence, r.rconf, r.lift)
                    for r in got
                ] == [
                    (r.antecedent, r.class_id, r.confidence, r.rconf, r.lift)
                    for r in want
                ]
