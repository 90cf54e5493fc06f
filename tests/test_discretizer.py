"""Entropy math, cut search, and interval application."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from araf.data import Column, ColumnKind, Dataset, Schema, load_csv, write_csv
from araf.discretize import (
    DiscretizationMap,
    apply_dataset,
    apply_discretizer,
    entropy,
    fit_dataset,
    fit_discretizer,
    info_gain,
    maps_from_json,
    maps_to_json,
)
from araf.errors import DataError, UsageError
from reference import values_equal


class TestEntropy:
    def test_balanced_binary_is_one_bit(self):
        assert entropy([4, 4]) == pytest.approx(1.0)

    def test_quarter_quarter_half(self):
        # -2*(1/4)log2(1/4) - (1/2)log2(1/2) = 1 + 0.5
        assert entropy([1, 1, 2]) == pytest.approx(1.5)

    def test_pure_is_zero(self):
        assert entropy([7, 0, 0]) == pytest.approx(0.0)

    def test_all_zero_undefined(self):
        with pytest.raises(DataError, match="^entropy of an empty distribution is undefined$"):
            entropy([0, 0])

    def test_uniform_k_is_log2_k(self):
        assert entropy([3, 3, 3, 3, 3, 3, 3, 3]) == pytest.approx(3.0)


class TestInfoGain:
    def test_pure_split_recovers_full_entropy(self):
        labels = np.array([0, 0, 1, 1])
        assert info_gain(labels, np.array([0, 0, 1, 1])) == pytest.approx(1.0)

    def test_single_part_gains_nothing(self):
        labels = np.array([0, 0, 1, 1])
        assert info_gain(labels, np.zeros(4, dtype=int)) == pytest.approx(0.0)

    def test_partial_split(self):
        # H(1/3, 2/3) - (4/6) * H(1/2, 1/2) = 0.9182958... - 0.6666667
        labels = np.array([0, 0, 1, 1, 1, 1])
        parts = np.array([0, 0, 0, 0, 1, 1])
        assert info_gain(labels, parts) == pytest.approx(0.2516291673878229, abs=1e-12)

    def test_bounded_by_label_entropy_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 3, size=n)
            cut = int(rng.integers(1, n))
            parts = (np.arange(n) >= cut).astype(int)
            ig = info_gain(labels, parts)
            assert -1e-12 <= ig <= entropy(np.bincount(labels)) + 1e-12


class TestFitDiscretizer:
    def test_two_bins_split_at_class_boundary(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1])
        dmap = fit_discretizer(vals, labels, k=2, l=4)
        assert dmap.thresholds == (2.5,)
        assert not dmap.degenerate

    def test_l_limits_probed_candidates(self):
        # with the best boundary at 1.5, a coarse probe grid (l=2 reaches
        # only the 1/3 and 2/3 quantiles, midpoints 2.5 and 3.5) must
        # settle for 2.5, while l=10 probes 1.5 and takes it
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 1, 1, 1])
        assert fit_discretizer(vals, labels, k=2, l=2).thresholds == (2.5,)
        assert fit_discretizer(vals, labels, k=2, l=10).thresholds == (1.5,)

    def test_constant_column_degenerate(self):
        vals = np.full(10, 3.0)
        labels = np.arange(10) % 2
        dmap = fit_discretizer(vals, labels, k=4, l=10)
        assert dmap.degenerate
        assert dmap.thresholds == ()

    def test_insufficient_rows(self):
        with pytest.raises(DataError, match="^need at least 3 rows for 3 intervals, have 2$"):
            fit_discretizer(np.array([1.0, 2.0]), np.array([0, 1]), k=3)

    def test_bad_k_and_l_rejected(self):
        with pytest.raises(UsageError):
            fit_discretizer(np.array([1.0, 2.0]), np.array([0, 1]), k=0)
        with pytest.raises(UsageError):
            fit_discretizer(np.array([1.0, 2.0]), np.array([0, 1]), k=2, l=0)

    @pytest.mark.parametrize("k", [2, 4])
    def test_l_beyond_the_row_count_gives_the_map_of_n_minus_1(self, k):
        # from l = m - 1 on, an interval of m rows has a quantile at every index
        rng = np.random.default_rng(3)
        vals = rng.normal(size=30).round(1)
        labels = rng.integers(0, 3, size=30)
        want = fit_discretizer(vals, labels, k=k, l=29)
        assert want != fit_discretizer(vals, labels, k=k, l=3)
        for l in (30, 31, 1000, 10**14):
            assert fit_discretizer(vals, labels, k=k, l=l) == want

    def test_thresholds_sorted_strictly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = rng.normal(size=60)
            labels = (vals > rng.normal()).astype(int)
            dmap = fit_discretizer(vals, labels, k=4, l=10)
            ts = list(dmap.thresholds)
            assert ts == sorted(ts)
            assert len(set(ts)) == len(ts)

    def test_first_cut_maximizes_info_gain_over_probed_grid(self):
        vals = np.array([0.1, 0.4, 0.9, 1.3, 2.2, 2.9, 3.4, 4.8, 5.5, 6.1])
        labels = np.array([0, 0, 0, 1, 1, 1, 0, 1, 1, 1])
        dmap = fit_discretizer(vals, labels, k=2, l=10)
        t = dmap.thresholds[0]

        def gain_at(cut):
            return info_gain(labels, (vals > cut).astype(int))

        svals = np.sort(vals)
        cands = [(svals[i] + svals[i + 1]) / 2 for i in range(len(svals) - 1)]
        assert gain_at(t) == pytest.approx(max(gain_at(c) for c in cands))

    def test_tie_breaks_toward_smaller_cut(self):
        # both midpoints separate nothing, so the gain ties at zero and
        # the smaller threshold must win
        vals = np.array([1.0, 2.0, 3.0])
        labels = np.array([0, 0, 0])
        dmap = fit_discretizer(vals, labels, k=2, l=10)
        assert dmap.thresholds == (1.5,)


def reference_fit(values, labels, k, l):
    """The full-partition greedy search, one info_gain over all rows per candidate.

    fit_discretizer computes the same gains from prefix class counts; this
    row-level version is the reference it must match exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = int(labels.max()) + 1
    sorted_vals = np.sort(values, kind="stable")
    thresholds = []
    for _ in range(k - 1):
        candidates = set()
        bounds = [-math.inf] + thresholds + [math.inf]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            inside = sorted_vals[(sorted_vals > lo) & (sorted_vals <= hi)]
            m = inside.size
            for i in range(1, l + 1) if m >= 2 else ():
                pos = min(max(math.ceil(i * m / (l + 1)) - 1, 0), m - 1)
                v = inside[pos]
                right = np.searchsorted(inside, v, side="right")
                if right < m:
                    candidates.add(float((v + inside[right]) / 2.0))
        if not candidates:
            break
        best_gain, best_cut = -math.inf, math.inf
        for cut in sorted(candidates):
            trial = np.array(sorted(thresholds + [cut]))
            gain = info_gain(labels, np.searchsorted(trial, values, side="left"), num_classes)
            if gain > best_gain:
                best_gain, best_cut = gain, cut
        thresholds = sorted(thresholds + [best_cut])
    return DiscretizationMap("", k, tuple(thresholds), len(thresholds) < k - 1)


@st.composite
def fit_cases(draw):
    """Columns with many ties (few distinct levels) and 1-12 classes."""
    k = draw(st.integers(2, 8))
    l = draw(st.integers(1, 12))
    num_classes = draw(st.integers(1, 12))
    n = draw(st.integers(k, 80))
    levels = draw(st.integers(1, 25))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 7.25]))
    values = [draw(st.integers(-levels, levels)) * scale for _ in range(n)]
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    return np.array(values), np.array(labels), k, l


class TestFitMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(fit_cases())
    def test_same_map_as_row_level_search(self, case):
        values, labels, k, l = case
        assert fit_discretizer(values, labels, k, l) == reference_fit(values, labels, k, l)

    @pytest.mark.parametrize(
        "tenths, labels, k, l",
        [
            pytest.param(
                [15, 29, 10, 34, 33, 16, 7, 24, 9, 4, 33, 37, 35, 32, 4, 20, 10, 21, 5, 7,
                 20, 28, 15, 19, 24, 2, 27, 32, 3, 29, 19, 21, 37, 4, 29, 8, 34, 21, 5, 20,
                 30, 6, 4, 37, 2, 25, 9, 2, 20, 29, 37, 17, 1, 13, 26, 4, 0, 20, 31, 25],
                [10, 2, 0, 5, 1, 0, 2, 2, 3, 1, 2, 6, 3, 4, 5, 12, 6, 7, 0, 5,
                 11, 9, 10, 7, 11, 5, 9, 12, 6, 3, 5, 7, 12, 7, 7, 2, 0, 3, 11, 0,
                 0, 5, 11, 8, 5, 9, 7, 5, 2, 10, 11, 8, 6, 3, 7, 3, 12, 2, 1, 5],
                8, 4,
                id="13-classes",
            ),
            pytest.param(
                [1, 29, 5, 13, 5, 26, 3, 17, 26, 35, 26, 24],
                [7, 3, 6, 4, 11, 2, 3, 3, 7, 6, 0, 5],
                4, 3,
                id="three-parts",
            ),
        ],
    )
    def test_cuts_whose_gains_differ_in_the_last_bits(self, tenths, labels, k, l):
        # found by random search: the best cut changes if an entropy sums
        # its terms in another order (NumPy sums 8+ terms in blocks of 8)
        # or if the parts' weighted entropies are added in another order
        values, labels = np.array(tenths) * 0.1, np.array(labels)
        assert fit_discretizer(values, labels, k, l) == reference_fit(values, labels, k, l)


class TestApplyDiscretizer:
    def test_right_closed_intervals(self):
        dmap = DiscretizationMap("a", 3, (2.5, 4.0), False)
        codes = apply_discretizer(dmap, np.array([1.0, 2.5, 2.6, 4.0, 4.1]))
        # a value equal to a threshold falls in the lower interval
        assert list(codes) == [0, 0, 1, 1, 2]

    def test_extremes_land_in_outer_bins(self):
        dmap = DiscretizationMap("a", 2, (0.0,), False)
        codes = apply_discretizer(dmap, np.array([-1e30, 1e30]))
        assert list(codes) == [0, 1]

    def test_interval_names_cover_line(self):
        dmap = DiscretizationMap("a", 3, (1.0, 2.0), False)
        names = dmap.interval_names()
        assert names == ["(-inf,1]", "(1,2]", "(2,inf]"]

    @pytest.mark.parametrize(
        "thresholds, names",
        [
            ((1700000093.5, 1700000107.5, 1700000201.5),
             ["(-inf,1.70000009e+09]", "(1.70000009e+09,1.70000011e+09]",
              "(1.70000011e+09,1.7000002e+09]", "(1.7000002e+09,inf]"]),
            # equal thresholds, as a hand-written map may hold, print alike at any precision
            ((0.1, 0.1), ["(-inf,0.10000000000000001]", "(0.10000000000000001,0.10000000000000001]",
                          "(0.10000000000000001,inf]"]),
        ],
        ids=["alike-at-six-digits", "equal"],
    )
    def test_interval_names_take_the_digits_that_tell_thresholds_apart(self, thresholds, names):
        assert DiscretizationMap("a", len(thresholds) + 1, thresholds).interval_names() == names


class TestDatasetLevel:
    def make(self, tmp_path):
        text = "a,b,y\n1.0,u,0\n2.0,u,0\n3.0,v,1\n4.0,v,1\n"
        path = tmp_path / "d.csv"
        path.write_text(text)
        return load_csv(str(path), "y")

    def test_only_continuous_columns_get_maps(self, tmp_path):
        ds = self.make(tmp_path)
        maps = fit_dataset(ds, k=2, l=4)
        assert [m.column for m in maps] == ["a"]

    def test_apply_produces_all_categorical(self, tmp_path):
        ds = self.make(tmp_path)
        maps = fit_dataset(ds, k=2, l=4)
        out = apply_dataset(ds, maps)
        assert all(c.kind is ColumnKind.CATEGORICAL for c in out.schema.features)
        assert out.n == ds.n and out.p == ds.p
        # untouched categorical column keeps its codes
        j = out.schema.feature_index("b")
        assert list(out.columns[j]) == list(ds.columns[ds.schema.feature_index("b")])

    def test_no_continuous_columns_is_identity(self):
        schema = Schema(
            (Column("a", ColumnKind.CATEGORICAL, ("x", "y")),), "y", ("0", "1")
        )
        ds = Dataset(
            schema,
            (np.array([0, 1], dtype=np.int64),),
            np.array([0, 1], dtype=np.int64),
        )
        maps = fit_dataset(ds, k=3)
        assert maps == []
        out = apply_dataset(ds, maps)
        assert values_equal(out, ds)

    def test_map_json_round_trip(self, tmp_path):
        ds = self.make(tmp_path)
        maps = fit_dataset(ds, k=2, l=4)
        text = maps_to_json(maps)
        back = maps_from_json(text)
        assert back == maps
        assert isinstance(json.loads(text), list)

    def test_refit_on_discretized_data_changes_nothing(self, tmp_path):
        ds = self.make(tmp_path)
        out = apply_dataset(ds, fit_dataset(ds, k=2, l=4))
        again = apply_dataset(out, fit_dataset(out, k=2, l=4))
        assert values_equal(again, out)


@st.composite
def clustered_thresholds(draw):
    """Strictly increasing thresholds in tight clusters, at magnitudes 1e-300 to 1e300 of either sign.

    Within a cluster, each threshold lies a few ULPs or a relative 1e-15 to
    1e-9 above the one before it.
    """
    cuts = set()
    for _ in range(draw(st.integers(1, 3))):
        cut = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(-300, 300))
        cuts.add(cut)
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                for _ in range(draw(st.integers(1, 4))):
                    cut = float(np.nextafter(cut, math.inf))
            else:
                cut += abs(cut) * draw(st.floats(1e-15, 1e-9))
            cuts.add(cut)
    return tuple(sorted(cuts))


class TestClusteredThresholds:
    @settings(max_examples=150, deadline=None)
    @given(clustered_thresholds(), st.data())
    def test_bins_get_distinct_names_and_survive_a_csv_round_trip(self, tmp_path_factory, thresholds, data):
        dmap = DiscretizationMap("t", len(thresholds) + 1, thresholds)
        names = dmap.interval_names()
        assert len(set(names)) == len(names)
        # a value at each threshold falls in the interval it closes, and one past the last fills the top
        values = data.draw(st.permutations(thresholds + (float(np.nextafter(thresholds[-1], math.inf)),)))
        schema = Schema((Column("t", ColumnKind.CONTINUOUS),), "y", ("a", "b"))
        ds = Dataset(schema, (np.array(values),), np.arange(len(values)) % 2)
        binned = apply_dataset(ds, [dmap])
        assert sorted(binned.schema.features[0].categories) == sorted(names)
        path = tmp_path_factory.mktemp("clustered") / "binned.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_csv(binned, fh)
        loaded = load_csv(str(path), "y")
        assert loaded.schema == binned.schema
        assert loaded.columns[0].tolist() == binned.columns[0].tolist()
        assert loaded.labels.tolist() == binned.labels.tolist()
