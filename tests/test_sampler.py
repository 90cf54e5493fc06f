"""Subsampling, the sample-size bound, and frequency estimation."""

import numpy as np
import pytest

from araf.bench import gen_freq_bench
from araf.data import binary_dataset
from araf.errors import UsageError
from araf.sampling import estimate_frequencies, required_sample_size, subsample
from reference import values_equal


class TestRequiredSampleSize:
    def test_bound_instance(self):
        # 2 * ln(4 / 0.008) / 0.05^2 = 4971.7
        assert required_sample_size(0.05, 0.008) == 4972

    def test_second_instance(self):
        # 2 * ln(4 / 0.01) / 0.1^2 = 1198.3
        assert required_sample_size(0.1, 0.01) == 1199

    def test_tightening_epsilon_grows_quadratically(self):
        a = required_sample_size(0.05, 0.01)
        b = required_sample_size(0.025, 0.01)
        assert b == pytest.approx(4 * a, rel=0.01)

    def test_invalid_arguments(self):
        with pytest.raises(UsageError):
            required_sample_size(0.0, 0.01)
        with pytest.raises(UsageError):
            required_sample_size(0.05, 1.0)
        with pytest.raises(UsageError):
            required_sample_size(0.05, 0.0)


class TestSubsample:
    def ds(self):
        rng = np.random.default_rng(0)
        return binary_dataset(
            rng.integers(0, 2, size=(200, 3)), rng.integers(0, 2, size=200)
        )

    def test_size_and_determinism(self):
        ds = self.ds()
        a = subsample(ds, 50, seed=3)
        b = subsample(ds, 50, seed=3)
        assert a.n == 50
        assert values_equal(a, b)

    def test_different_seed_differs(self):
        ds = self.ds()
        a = subsample(ds, 50, seed=3)
        b = subsample(ds, 50, seed=4)
        assert not values_equal(a, b)

    def test_single_row_draw(self):
        ds = self.ds()
        a = subsample(ds, 1, seed=0)
        assert a.n == 1

    def test_with_replacement_can_exceed_n(self):
        ds = self.ds()
        a = subsample(ds, 500, seed=0)
        assert a.n == 500

    def test_invalid_size(self):
        with pytest.raises(UsageError):
            subsample(self.ds(), 0)

    def test_schema_preserved(self):
        ds = self.ds()
        got = subsample(ds, 30, seed=1)
        assert got.schema == ds.schema


class TestEstimateFrequencies:
    def test_constant_antecedent_estimates_one(self):
        ds = binary_dataset(np.ones((40, 2), dtype=int), np.zeros(40, dtype=int))
        est = estimate_frequencies(ds, [((0, 1),)], 10, seed=0)
        assert est[((0, 1),)] == 1.0

    def test_absent_antecedent_estimates_zero(self):
        ds = binary_dataset(np.ones((40, 2), dtype=int), np.zeros(40, dtype=int))
        est = estimate_frequencies(ds, [((0, 0),)], 10, seed=0)
        assert est[((0, 0),)] == 0.0

    def test_accuracy_at_bound_size(self):
        # the 0.7-frequency column estimated on n'=5000 should stay within
        # 0.02 nearly always; 3-sigma here is about 0.019
        ds = gen_freq_bench(50_000, seed=1)
        ant = ((2, 1),)
        within = 0
        trials = 200
        for seed in range(trials):
            est = estimate_frequencies(ds, [ant], 5000, seed=seed)
            if abs(est[ant] - 0.7) <= 0.02:
                within += 1
        assert within >= 0.95 * trials

    def test_pair_estimate(self):
        x = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])
        ds = binary_dataset(x, np.zeros(4, dtype=int))
        ant = ((0, 1), (1, 1))
        est = estimate_frequencies(ds, [ant], 40, seed=0)
        # the fraction of drawn rows holding both items, 1/2 in the full table
        drawn = subsample(ds, 40, seed=0)
        both = (drawn.columns[0] == 1) & (drawn.columns[1] == 1)
        assert est[ant] == both.mean()
        assert 0.25 < est[ant] < 0.75
