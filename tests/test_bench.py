"""Synthetic generators, the reference miner's guards, and the evaluator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from araf.bench import (
    LogisticModel,
    _power_iteration_sq,
    brute_force_topk,
    evaluate,
    freq_ground_truth,
    gen_freq_bench,
    gen_s1,
    gen_s2,
    generate,
    mine_method,
    run_synth_trial,
    s1_ground_truth,
    stratified_split,
    train_logreg,
)
from araf.data import Dataset, binary_dataset
from araf.errors import DataError, UsageError
from araf.features import FeatureMode, transform
from araf.mining import MiningConfig
from reference import values_equal


class TestGenerators:
    def test_s1_shape_and_schema(self):
        ds = gen_s1(1000, seed=0)
        assert ds.n == 1000 and ds.p == 99
        assert ds.schema.classes == ("0", "1", "2")
        assert ds.schema.feature_names()[0] == "X1"

    def test_s1_label_distribution(self):
        # pooled over 100 seeds, the label mix must match the analytic
        # proportions (0.95*0.70 + 0.05/3, ...) at the 0.1% level
        expected = np.array([0.6816667, 0.2304167, 0.0879167])
        counts = np.zeros(3)
        for seed in range(100):
            ds = gen_s1(1000, seed=seed)
            counts += np.bincount(ds.labels, minlength=3)
        total = counts.sum()
        chi2 = float(((counts - total * expected) ** 2 / (total * expected)).sum())
        # chi-square critical value at alpha=0.001 with 2 degrees of freedom
        assert chi2 < 13.8155, (counts / total, chi2)

    def test_s1_exact_noise_count(self):
        # exactly round(0.05 n) rows get relabeled, so at most that many
        # rows can disagree with the noise-free rule
        ds = gen_s1(1000, seed=5)
        x1 = ds.columns[0]
        x2, x3 = ds.columns[1], ds.columns[2]
        clean = np.where(x1 == 0, 0, np.where((x2 == 1) & (x3 == 1), 2, 1))
        disagree = int((clean != ds.labels).sum())
        assert disagree <= 50

    def test_s1_seed_determinism(self):
        assert values_equal(gen_s1(200, seed=9), gen_s1(200, seed=9))
        assert not values_equal(gen_s1(200, seed=9), gen_s1(200, seed=10))

    def test_s2_constant_columns(self):
        ds = gen_s2(400, seed=3)
        assert ds.p == 99
        assert (ds.columns[97] == 1).all()
        assert (ds.columns[98] == 1).all()

    def test_s2_matches_s1_elsewhere(self):
        a = gen_s1(300, seed=7)
        b = gen_s2(300, seed=7)
        assert (a.labels == b.labels).all()
        for j in range(97):
            assert (a.columns[j] == b.columns[j]).all()

    def test_freq_marginals(self):
        ds = gen_freq_bench(200_000, seed=2)
        x1, x2, x3 = ds.columns[0], ds.columns[1], ds.columns[2]
        assert np.mean(x1 == 1) == pytest.approx(0.90, abs=0.01)
        assert np.mean(x2 == 1) == pytest.approx(0.80, abs=0.01)
        assert np.mean((x1 == 1) & (x2 == 1)) == pytest.approx(0.75, abs=0.01)
        assert np.mean(x3 == 1) == pytest.approx(0.70, abs=0.01)

    def test_freq_single_class(self):
        ds = gen_freq_bench(100, seed=0)
        assert ds.schema.classes == ("1",)
        assert (ds.labels == 0).all()

    def test_config_validation(self):
        with pytest.raises(UsageError, match="^unknown synthetic variant 'nope'$"):
            generate("nope", 100)
        with pytest.raises(UsageError, match="^n must be >= 1$"):
            generate("s1", 0)
        ds = generate("s1", 100, seed=1)
        assert (ds.n, ds.p) == (100, 99)
        assert generate("freq", 100).p == 10

    def test_ground_truth_lists(self):
        assert len(s1_ground_truth()) == 5
        assert [t for _, t in freq_ground_truth()] == [0.9, 0.8, 0.75, 0.7]


class TestBruteForceGuards:
    def test_too_many_rows(self):
        ds = binary_dataset(
            np.zeros((2001, 2), dtype=int), np.zeros(2001, dtype=int)
        )
        with pytest.raises(UsageError, match="^reference miner is limited to n <= 2000, p <= 20$"):
            brute_force_topk(ds, MiningConfig(5, 5))

    def test_too_many_columns(self):
        ds = binary_dataset(np.zeros((10, 21), dtype=int), np.zeros(10, dtype=int))
        with pytest.raises(UsageError, match="^reference miner is limited to n <= 2000, p <= 20$"):
            brute_force_topk(ds, MiningConfig(5, 5))

    def test_no_subsample_configs(self):
        ds = binary_dataset(np.zeros((10, 2), dtype=int), np.zeros(10, dtype=int))
        with pytest.raises(UsageError):
            brute_force_topk(ds, MiningConfig(5, 5, subsample=5))


class TestLogreg:
    def test_zero_features_learns_the_prior(self):
        y = np.array([0] * 70 + [1] * 30)
        x = np.empty((100, 0))
        model = train_logreg(x, y, 2)
        logloss, acc = evaluate(model, x, y)
        want = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
        assert logloss == pytest.approx(want, abs=1e-3)
        assert acc == pytest.approx(0.7)

    def test_separable_toy_is_learned(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 2))
        margin = np.abs(x[:, 0] + x[:, 1]) > 0.3
        x = x[margin]
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = train_logreg(x, y, 2, penalty=0.01)
        logloss, acc = evaluate(model, x, y)
        assert acc == 1.0
        assert logloss < 0.25

    def test_multiclass_accuracy(self):
        rng = np.random.default_rng(1)
        centers = np.array([[0, 0], [4, 0], [0, 4]])
        x = np.concatenate([rng.normal(c, 0.5, size=(50, 2)) for c in centers])
        y = np.repeat(np.arange(3), 50)
        model = train_logreg(x, y, 3)
        _, acc = evaluate(model, x, y)
        assert acc > 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, size=80)
        a = train_logreg(x, y, 2)
        b = train_logreg(x, y, 2)
        assert (a.weights == b.weights).all()
        assert (a.bias == b.bias).all()

    def test_nonfinite_rejected(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError, match="^design matrix contains non-finite values$"):
            train_logreg(x, np.array([0, 1]), 2)

    def test_single_class_rejected(self):
        x = np.zeros((5, 2))
        with pytest.raises(DataError, match="^training labels contain a single class$"):
            train_logreg(x, np.zeros(5, dtype=int), 2)


# -- reference evaluator: the plain NumPy form that train_logreg must reproduce bit for bit


def reference_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_train_logreg(x, y, num_classes, penalty=1.0, max_iter=400, tol=1e-6):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = x.shape
    lam = penalty / n
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    lipschitz = 0.5 * (_power_iteration_sq(x) + n) / n + lam
    step = 1.0 / max(lipschitz, 1e-12)
    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    w_prev, b_prev = w.copy(), b.copy()
    for t in range(1, max_iter + 1):
        mu = (t - 1) / (t + 2)
        wv = w + mu * (w - w_prev)
        bv = b + mu * (b - b_prev)
        probs = reference_softmax(x @ wv + bv)
        g = (probs - onehot) / n
        gw = x.T @ g + lam * wv
        gb = g.sum(axis=0)
        w_prev, b_prev = w, b
        w = wv - step * gw
        b = bv - step * gb
        if max(np.abs(gw).max(initial=0.0), np.abs(gb).max(initial=0.0)) < tol:
            break
    return LogisticModel(weights=w, bias=b)


def reference_evaluate(model, x, y):
    probs = reference_softmax(x @ model.weights + model.bias)
    picked = np.clip(probs[np.arange(len(y)), y], 1e-300, None)
    return float(-np.log(picked).mean()), float((probs.argmax(axis=1) == y).mean())


def assert_same_as_reference(x, y, num_classes, x_test, y_test):
    got = train_logreg(x, y, num_classes)
    want = reference_train_logreg(x, y, num_classes)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias)
    assert evaluate(got, x_test, y_test) == reference_evaluate(want, x_test, y_test)


@st.composite
def logreg_cases(draw):
    """Design matrices with 2-7 classes, integer-valued (so ties are common) or
    scaled real columns, some columns constant and some copies of another."""
    num_classes = draw(st.integers(2, 7))
    n = draw(st.integers(2, 300))
    d = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(np.float64)
    else:
        x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.01, 1.0, 30.0]))
    for j in range(d):
        kind = draw(st.sampled_from(["keep", "keep", "constant", "copy"]))
        if kind == "constant":
            x[:, j] = draw(st.sampled_from([0.0, 1.0, -2.5]))
        elif kind == "copy" and j:
            x[:, j] = x[:, draw(st.integers(0, j - 1))]
    y = rng.integers(0, num_classes, size=n)
    y[:2] = [0, 1]  # at least two classes, or training refuses the labels
    return x, y, num_classes


class TestLogregExactness:
    @settings(max_examples=200, deadline=None)
    @given(logreg_cases())
    @example((np.ones((2, 0)), np.array([0, 1]), 2))
    @example((np.zeros((5, 3)), np.array([0, 1, 6, 6, 3]), 7))
    def test_matches_plain_numpy_form(self, case):
        x, y, num_classes = case
        assert_same_as_reference(x, y, num_classes, x, y)

    def test_matches_on_a_real_trial_matrix(self):
        # the conf feature matrix of one s1 trial, built as run_synth_trial builds it
        ds = gen_s1(1000, seed=3)
        train_idx, test_idx = stratified_split(ds.labels, 0.3, 3 + 7_000_003)
        train_ds = Dataset(
            ds.schema, tuple(col[train_idx] for col in ds.columns), ds.labels[train_idx]
        )
        rules = mine_method(train_ds, "conf", 45, 5)
        matrix, _ = transform(
            ds, [r.antecedent for r in rules], FeatureMode.APPEND_TO_LABEL_ENCODED
        )
        assert matrix[train_idx].shape == (700, 104)
        assert_same_as_reference(
            matrix[train_idx], ds.labels[train_idx], 3, matrix[test_idx], ds.labels[test_idx]
        )
        base, _ = transform(ds, [], FeatureMode.APPEND_TO_LABEL_ENCODED)
        assert_same_as_reference(
            base[train_idx], ds.labels[train_idx], 3, base[test_idx], ds.labels[test_idx]
        )


class TestStratifiedSplit:
    def test_partition_and_proportions(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=300)
        train, test = stratified_split(y, 0.3, seed=4)
        assert len(set(train) & set(test)) == 0
        assert len(train) + len(test) == 300
        for c in range(3):
            size = int((y == c).sum())
            in_test = int((y[test] == c).sum())
            assert in_test == round(0.3 * size)

    def test_every_class_in_both_sides(self):
        y = np.array([0] * 50 + [1] * 3 + [2] * 2)
        train, test = stratified_split(y, 0.3, seed=0)
        for c in range(3):
            assert (y[train] == c).any()
            assert (y[test] == c).any()

    def test_deterministic(self):
        y = np.arange(100) % 3
        a = stratified_split(y, 0.3, seed=7)
        b = stratified_split(y, 0.3, seed=7)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


class TestTrialHarness:
    def test_one_trial_reports_all_methods(self):
        trial = run_synth_trial("s1", seed=1000, with_eval=True)
        assert set(trial.rules) == {"conf", "rconf", "reluctant"}
        assert set(trial.metrics) == {"origin", "conf", "rconf", "reluctant"}
        for logloss, acc in trial.metrics.values():
            assert math.isfinite(logloss) and 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_split_side_is_a_usage_error(self, n):
        with pytest.raises(UsageError, match="--n %d" % n):
            run_synth_trial("s1", seed=0, n=n)

    def test_zero_width_is_not_replaced_by_the_default(self):
        with pytest.raises(UsageError, match="p >= 3"):
            generate("s1", 100, seed=1, p=0)
