"""Rule-to-feature conversion and design matrix assembly."""

import numpy as np
import pytest

from araf.bench import gen_s1
from araf.data import binary_dataset, load_csv
from araf.errors import ContinuousPresentError, SchemaMismatchError, UsageError
from araf.features import (
    FeatureMode,
    FeatureSpec,
    generate_features,
    suggest_params,
    transform,
)
from araf.mining import MiningConfig, Scoring, mine_frequent
from araf.rules import select_rules, select_rules_reluctant


def mined_rules(ds, d_freq=10, d_conf=5):
    config = MiningConfig(d_freq, d_conf)
    return select_rules(mine_frequent(ds, config), config)


class TestSuggestParams:
    def test_hundred_features_three_classes(self):
        assert suggest_params(100, 3) == (150, 50)

    def test_s1_width(self):
        assert suggest_params(99, 3) == (135, 45)

    def test_floor_at_tiny_width(self):
        assert suggest_params(1, 2) == (10, 5)

    def test_invalid_rejected(self):
        with pytest.raises(UsageError):
            suggest_params(0, 2)
        with pytest.raises(UsageError):
            suggest_params(5, 0)


class TestGenerateFeatures:
    def rules(self):
        x = np.array([[1, 1], [1, 0], [0, 1], [0, 0]] * 5)
        y = np.array([0, 0, 1, 1] * 5)
        ds = binary_dataset(x, y)
        return ds, mined_rules(ds, 12, 12)

    def test_duplicate_antecedents_collapse(self):
        ds, rules = self.rules()
        ants = [r.antecedent for r in rules]
        # the mined list repeats antecedents across classes
        assert len(set(ants)) < len(ants)
        spec = generate_features(rules, FeatureMode.APPEND_TO_LABEL_ENCODED)
        assert len(set(spec.antecedents)) == len(spec.antecedents)
        assert set(spec.antecedents) == set(ants)

    def test_rule_order_preserved(self):
        ds, rules = self.rules()
        spec = generate_features(rules, FeatureMode.APPEND_TO_LABEL_ENCODED)
        first_seen = []
        for r in rules:
            if r.antecedent not in first_seen:
                first_seen.append(r.antecedent)
        assert list(spec.antecedents) == first_seen

    def test_onehot_mode_keeps_only_interactions(self):
        ds, rules = self.rules()
        spec = generate_features(rules, FeatureMode.APPEND_INTERACTIONS_TO_ONE_HOT)
        assert spec.antecedents
        assert all(len(ant) == 2 for ant in spec.antecedents)


class TestTransform:
    def test_label_mode_appends_indicators(self):
        x = np.array([[1, 1], [1, 0], [0, 1]])
        y = np.array([0, 1, 1])
        ds = binary_dataset(x, y)
        spec = FeatureSpec(((((0, 1), (1, 1))),), FeatureMode.APPEND_TO_LABEL_ENCODED)
        mat, names = transform(ds, spec)
        assert names == ["X1", "X2", "X1=1&X2=1"]
        assert mat.tolist() == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]

    def test_onehot_mode_appends_to_expansion(self):
        x = np.array([[1, 1], [1, 0], [0, 1]])
        y = np.array([0, 1, 1])
        ds = binary_dataset(x, y)
        spec = FeatureSpec(
            (((0, 1),), ((0, 1), (1, 1))),
            FeatureMode.APPEND_INTERACTIONS_TO_ONE_HOT,
        )
        mat, names = transform(ds, spec)
        # 4 one-hot columns plus the pair indicator; the single-item
        # antecedent is already covered by column X1=1
        assert names == ["X1=0", "X1=1", "X2=0", "X2=1", "X1=1&X2=1"]
        assert mat.shape == (3, 5)
        assert mat[:, 4].tolist() == [1.0, 0.0, 0.0]

    def test_indicator_matches_manual_mask(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=(50, 4))
        y = rng.integers(0, 2, size=50)
        ds = binary_dataset((x > 0).astype(int), y)
        ant = ((1, 1), (3, 0))
        spec = FeatureSpec((ant,), FeatureMode.APPEND_TO_LABEL_ENCODED)
        mat, _ = transform(ds, spec)
        manual = ((ds.columns[1] == 1) & (ds.columns[3] == 0)).astype(float)
        assert (mat[:, -1] == manual).all()

    def test_unknown_feature_rejected(self):
        ds = binary_dataset(np.zeros((3, 2), dtype=int), np.zeros(3, dtype=int))
        spec = FeatureSpec((((5, 0),),), FeatureMode.APPEND_TO_LABEL_ENCODED)
        with pytest.raises(SchemaMismatchError):
            transform(ds, spec)

    def test_unknown_category_rejected(self):
        ds = binary_dataset(np.zeros((3, 2), dtype=int), np.zeros(3, dtype=int))
        spec = FeatureSpec((((0, 7),),), FeatureMode.APPEND_TO_LABEL_ENCODED)
        with pytest.raises(SchemaMismatchError):
            transform(ds, spec)

    def test_continuous_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n0.5,u\n0.7,v\n")
        ds = load_csv(str(path), "y")
        spec = FeatureSpec((), FeatureMode.APPEND_TO_LABEL_ENCODED)
        with pytest.raises(ContinuousPresentError):
            transform(ds, spec)


class TestEndToEndWidth:
    def test_s1_label_mode_width(self):
        ds = gen_s1(500, seed=0)
        config = MiningConfig(
            45, 5, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE, reluctant=True
        )
        rules = select_rules_reluctant(mine_frequent(ds, config), config)
        spec = generate_features(rules, FeatureMode.APPEND_TO_LABEL_ENCODED)
        mat, names = transform(ds, spec)
        assert ds.p == 99
        assert ds.p <= mat.shape[1] <= ds.p + 5
        assert len(names) == mat.shape[1]
