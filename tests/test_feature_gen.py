"""Rule-to-feature conversion and design matrix assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from araf.bench import generate
from araf.data import Column, ColumnKind, Dataset, Schema, binary_dataset, load_csv
from araf.errors import DataError, UsageError
from araf.features import FeatureMode, antecedent_name, suggest_params, transform
from araf.mining import MiningConfig, Scoring, mine_frequent
from araf.rules import select_rules, select_rules_reluctant

LABEL = FeatureMode.APPEND_TO_LABEL_ENCODED
ONE_HOT = FeatureMode.APPEND_INTERACTIONS_TO_ONE_HOT


def mined_rules(ds, d_freq=10, d_conf=5):
    config = MiningConfig(d_freq, d_conf)
    return select_rules(mine_frequent(ds, config), config)


def antecedents(rules):
    return [r.antecedent for r in rules]


# -- reference: the three-step assembly transform replaced (dedup and filter,
# one-hot expansion, then the matrix), kept to pin its outputs


def reference_generate_features(ants, mode):
    seen, ordered = set(), []
    for ant in ants:
        if mode is ONE_HOT and len(ant) == 1:
            continue
        if ant in seen:
            continue
        seen.add(ant)
        ordered.append(ant)
    return tuple(ordered)


def reference_one_hot(ds):
    blocks, names = [], []
    for j, spec in enumerate(ds.schema.features):
        block = np.zeros((ds.n, len(spec.categories)), dtype=np.uint8)
        block[np.arange(ds.n), ds.columns[j]] = 1
        blocks.append(block)
        names.extend("%s=%s" % (spec.name, cat) for cat in spec.categories)
    if not blocks:
        return np.empty((ds.n, 0), dtype=np.uint8), names
    return np.concatenate(blocks, axis=1), names


def reference_transform(ds, ants, mode):
    kept = reference_generate_features(ants, mode)
    if mode is LABEL:
        base = np.column_stack([c.astype(np.float64) for c in ds.columns]) if ds.p else np.empty((ds.n, 0))
        base_names = [c.name for c in ds.schema.features]
        extra = kept
    else:
        base, base_names = reference_one_hot(ds)
        base = base.astype(np.float64)
        extra = tuple(ant for ant in kept if len(ant) == 2)
    blocks = [base]
    for ant in extra:
        mask = np.ones(ds.n, dtype=bool)
        for f, c in ant:
            mask &= ds.columns[f] == c
        blocks.append(mask.astype(np.float64).reshape(-1, 1))
    names = base_names + [antecedent_name(ant, ds.schema) for ant in extra]
    return np.concatenate(blocks, axis=1), names


@st.composite
def transform_cases(draw):
    """A random categorical schema (some categories never occur, since cells
    draw from a prefix of each column's categories) and antecedent lists with
    repeats, as rules of several classes give, mixing single items and pairs."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=0, max_size=5))
    n = draw(st.integers(0, 30))
    used = [draw(st.integers(1, k)) for k in sizes]
    cols = tuple(
        np.array([draw(st.integers(0, u - 1)) for _ in range(n)], dtype=np.int64) for u in used
    )
    specs = tuple(
        Column("c%d" % j, ColumnKind.CATEGORICAL, tuple("v%d" % c for c in range(k)))
        for j, k in enumerate(sizes)
    )
    ds = Dataset(Schema(specs, "y", ("a", "b")), cols, np.zeros(n, dtype=np.int64))
    items = [(f, c) for f, k in enumerate(sizes) for c in range(k)]
    ants = []
    if items:
        item = st.sampled_from(items)
        single = item.map(lambda it: (it,))
        pair = st.tuples(item, item).filter(lambda t: t[0][0] != t[1][0]).map(lambda t: tuple(sorted(t)))
        ants = draw(st.lists(st.one_of(single, pair), max_size=12))
        if ants:
            ants += draw(st.lists(st.sampled_from(ants), max_size=4))
    return ds, ants


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
        _, names = transform(ds, ants, LABEL)
        appended = names[ds.p:]
        assert len(set(appended)) == len(appended)
        assert set(appended) == {antecedent_name(ant, ds.schema) for ant in ants}

    def test_rule_order_preserved(self):
        ds, rules = self.rules()
        _, names = transform(ds, antecedents(rules), LABEL)
        first_seen = []
        for r in rules:
            if r.antecedent not in first_seen:
                first_seen.append(r.antecedent)
        assert names[ds.p:] == [antecedent_name(ant, ds.schema) for ant in first_seen]

    def test_onehot_mode_keeps_only_interactions(self):
        ds, rules = self.rules()
        _, names = transform(ds, antecedents(rules), ONE_HOT)
        one_hot_width = sum(len(col.categories) for col in ds.schema.features)
        appended = names[one_hot_width:]
        assert appended
        assert all(name.count("&") == 1 for name in appended)
        assert len(appended) == len({ant for ant in antecedents(rules) if len(ant) == 2})


class TestTransform:
    def test_label_mode_appends_indicators(self):
        x = np.array([[1, 1], [1, 0], [0, 1]])
        y = np.array([0, 1, 1])
        ds = binary_dataset(x, y)
        mat, names = transform(ds, [((0, 1), (1, 1))], LABEL)
        assert names == ["X1", "X2", "X1=1&X2=1"]
        assert mat.tolist() == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]

    def test_onehot_mode_appends_to_expansion(self):
        x = np.array([[1, 1], [1, 0], [0, 1]])
        y = np.array([0, 1, 1])
        ds = binary_dataset(x, y)
        mat, names = transform(ds, [((0, 1),), ((0, 1), (1, 1))], ONE_HOT)
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
        mat, _ = transform(ds, [ant], LABEL)
        manual = ((ds.columns[1] == 1) & (ds.columns[3] == 0)).astype(float)
        assert (mat[:, -1] == manual).all()

    def test_unknown_feature_rejected(self):
        ds = binary_dataset(np.zeros((3, 2), dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(DataError, match="^antecedent references feature index 5$"):
            transform(ds, [((5, 0),)], LABEL)

    def test_unknown_category_rejected(self):
        ds = binary_dataset(np.zeros((3, 2), dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(DataError, match="^antecedent references category 7 of column 'X1'$"):
            transform(ds, [((0, 7),)], LABEL)

    @pytest.mark.parametrize(
        "item, message",
        [((5, 0), "feature index 5"), ((0, 7), "category 7 of column 'X1'")],
        ids=["feature", "category"],
    )
    def test_onehot_mode_checks_single_items_too(self, item, message):
        # one-hot mode needs no column for a single item, but an item the
        # schema lacks still means the rules belong to another schema
        ds = binary_dataset(np.zeros((3, 2), dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(DataError, match="^antecedent references %s$" % message):
            transform(ds, [(item,)], ONE_HOT)

    def test_continuous_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n0.5,u\n0.7,v\n")
        ds = load_csv(str(path), "y")
        with pytest.raises(DataError, match="^column 'a' is continuous; discretize before transform$"):
            transform(ds, [], LABEL)

    @settings(max_examples=300, deadline=None)
    @given(transform_cases(), st.sampled_from([LABEL, ONE_HOT]))
    @example((binary_dataset(np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int)), []), LABEL)
    def test_matches_the_reference_assembly(self, case, mode):
        ds, ants = case
        mat, names = transform(ds, ants, mode)
        want, want_names = reference_transform(ds, ants, mode)
        assert mat.dtype == want.dtype == np.float64
        assert np.array_equal(mat, want)
        assert names == want_names


class TestEndToEndWidth:
    def test_s1_label_mode_width(self):
        ds = generate("s1", 500, seed=0)
        config = MiningConfig(
            45, 5, per_class=True, scoring=Scoring.RELATIVE_CONFIDENCE, reluctant=True
        )
        rules = select_rules_reluctant(mine_frequent(ds, config), config)
        mat, names = transform(ds, antecedents(rules), LABEL)
        assert ds.p == 99
        assert ds.p <= mat.shape[1] <= ds.p + 5
        assert len(names) == mat.shape[1]
