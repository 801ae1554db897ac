"""Boxplot filtering, distributional outlier detection, index bookkeeping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayes_cpd import (
    DensityFunction,
    DistributionalSequence,
    beta_density,
    clean,
    clean_and_detect,
    detect,
    detect_distributional_outliers,
    zero_avoid,
)
from bayes_cpd import cleaning
from bayes_cpd.cleaning import CleaningReport, boxplot_keep_mask
from bayes_cpd.errors import DegenerateInputError, StructuralError
from bayes_cpd.seeds import derive_seed
from bayes_cpd.simlab import contaminate, gen_model3, gen_outliers

from helpers import random_beta, two_segment_sequence


def quartile_oracle(samples, p):
    """Linear interpolation of order statistics, written out longhand."""
    x = np.sort(np.asarray(samples, dtype=float))
    h = (x.size - 1) * p
    lo = int(np.floor(h))
    gamma = h - lo
    return (1 - gamma) * x[lo] + gamma * x[min(lo + 1, x.size - 1)]


def scalar_boxplot_filter(samples, whisker=1.5):
    samples = np.asarray(samples, dtype=np.float64)
    return samples[boxplot_keep_mask(samples, whisker)]


class TestScalarBoxplotFilter:
    def test_no_outliers_unchanged(self):
        np.testing.assert_array_equal(scalar_boxplot_filter([1, 2, 3, 4, 5]),
                                      [1, 2, 3, 4, 5])

    def test_single_far_value_removed(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0]
        q1 = quartile_oracle(samples, 0.25)
        q3 = quartile_oracle(samples, 0.75)
        assert (q1, q3) == (2.0, 4.0)
        assert q3 + 1.5 * (q3 - q1) == 7.0  # fence excludes only 100
        np.testing.assert_array_equal(scalar_boxplot_filter(samples), [1, 2, 3, 4])

    def test_constant_samples_unchanged(self):
        np.testing.assert_array_equal(scalar_boxplot_filter([3.0] * 6), [3.0] * 6)

    def test_small_sample_pass_through_with_warning(self):
        with pytest.warns(UserWarning):
            out = scalar_boxplot_filter([1.0, 200.0, 3.0])
        np.testing.assert_array_equal(out, [1.0, 200.0, 3.0])

    def test_positive_whisker_required(self):
        with pytest.raises(StructuralError):
            boxplot_keep_mask(np.arange(6.0), whisker=0.0)

    def test_empty_samples_pass_through_with_warning(self):
        with pytest.warns(UserWarning, match="fewer than 4 samples"):
            mask = boxplot_keep_mask(np.array([]))
        assert mask.shape == (0,) and mask.dtype == bool

    @pytest.mark.parametrize("size", [0, 2, 6])
    @pytest.mark.parametrize("whisker", [0.0, -1.0, np.nan])
    def test_bad_whisker_refused_at_every_sample_count(self, size, whisker):
        with pytest.raises(StructuralError, match="whisker must be positive"):
            boxplot_keep_mask(np.arange(float(size)), whisker)

    @pytest.mark.parametrize("whisker", [1.5, 1e300, np.inf])
    def test_zero_iqr_fences_are_the_quartiles_at_any_whisker(self, whisker):
        samples = [2.0] * 8 + [1.0, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cleaning.tukey_fences(samples, whisker) == (2.0, 2.0)
            np.testing.assert_array_equal(scalar_boxplot_filter(samples, whisker), [2.0] * 8)

    def test_infinite_whisker_sets_no_fence(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert cleaning.tukey_fences(samples, np.inf) == (-np.inf, np.inf)
        np.testing.assert_array_equal(scalar_boxplot_filter(samples, np.inf), samples)

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=60),
           st.floats(0.5, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_fences_respected(self, samples, whisker):
        samples = np.asarray(samples)
        kept = scalar_boxplot_filter(samples, whisker)
        q1 = quartile_oracle(samples, 0.25)
        q3 = quartile_oracle(samples, 0.75)
        iqr = q3 - q1
        assert np.all(kept >= q1 - whisker * iqr - 1e-9)
        assert np.all(kept <= q3 + whisker * iqr + 1e-9)


class TestDistributionalOutlierDetector:
    def test_homogeneous_data_rarely_flagged(self, grid):
        # the fence sits near the clean-data max; measured empty-set rate
        # for this detector at whisker 1.5 is ~0.76 over seeded replicates
        empty = 0
        for r in range(30):
            rng = np.random.default_rng(derive_seed(55, r))
            dens = tuple(zero_avoid(beta_density(grid, rng.uniform(10, 15),
                                                 rng.uniform(10, 15)))
                         for _ in range(100))
            seq = DistributionalSequence.from_densities(dens)
            flagged = detect_distributional_outliers(seq)
            empty += (len(flagged) == 0)
            assert len(flagged) <= 3
        assert empty >= 0.7 * 30

    def test_recall_and_precision_under_contamination(self, grid):
        tp = fp = fn = 0
        for r in range(20):
            rep_seed = derive_seed(123, r)
            seq = gen_model3(100, 50, derive_seed(rep_seed, 0), grid)
            outliers = gen_outliers(20, derive_seed(rep_seed, 3), grid)
            seq, truth = contaminate(seq, outliers, derive_seed(rep_seed, 2))
            flagged = set(detect_distributional_outliers(seq))
            truth = set(truth)
            tp += len(flagged & truth)
            fp += len(flagged - truth)
            fn += len(truth - flagged)
        assert tp / (tp + fn) >= 0.8   # recall
        assert tp / (tp + fp) >= 0.6   # precision

    def test_single_bimodal_outlier_flagged(self, grid):
        rng = np.random.default_rng(99)
        densities = [random_beta(grid, rng, 10, 15) for _ in range(99)]
        bump = 0.5 * beta_density(grid, 8, 24).values + 0.5 * beta_density(grid, 24, 8).values
        densities.insert(37 - 1, zero_avoid(DensityFunction(grid, bump)))
        flagged = detect_distributional_outliers(DistributionalSequence.from_densities(densities))
        assert 37 in flagged

    def test_detector_does_not_mutate_sequence(self, grid):
        rng = np.random.default_rng(7)
        seq = DistributionalSequence.from_densities(random_beta(grid, rng) for _ in range(6))
        before = seq.values.copy()
        detect_distributional_outliers(seq)
        np.testing.assert_array_equal(seq.values, before)

    @pytest.mark.parametrize("whisker", [0.0, -1.0, float("nan")])
    def test_positive_whisker_required(self, grid, whisker):
        with pytest.raises(StructuralError):
            detect_distributional_outliers(two_segment_sequence(grid, 4, 4), whisker)

    @pytest.mark.parametrize("whisker", [0.5, 1.5, 3.0])
    def test_flags_exactly_the_distances_above_the_upper_fence(self, grid, whisker):
        # a quarter of the densities are outliers, so the fence moves with the whisker
        rep_seed = derive_seed(321, 0)
        seq = gen_model3(60, 30, derive_seed(rep_seed, 0), grid)
        seq, _ = contaminate(seq, gen_outliers(15, derive_seed(rep_seed, 3), grid),
                             derive_seed(rep_seed, 2))
        mat = seq.clr_matrix()
        diff = mat - np.median(mat, axis=0)
        distances = np.sqrt((diff * diff) @ grid.weights)
        q1 = quartile_oracle(distances, 0.25)
        q3 = quartile_oracle(distances, 0.75)
        expected = tuple(i + 1 for i, d in enumerate(distances)
                         if d > q3 + whisker * (q3 - q1))
        assert len(expected) == {0.5: 15, 1.5: 12, 3.0: 9}[whisker]
        assert detect_distributional_outliers(seq, whisker) == expected


@pytest.fixture()
def flag_fixed(monkeypatch):
    """Make the outlier rule flag the given indices whatever the data;
    the whiskers it is called with are collected in the returned list."""
    whiskers = []

    def install(indices):
        def fake(seq, whisker):
            whiskers.append(whisker)
            return tuple(indices)
        monkeypatch.setattr(cleaning, "detect_distributional_outliers", fake)
        return whiskers

    return install


class TestCleanAndDetect:
    def test_never_flagging_detector_is_noop(self, grid, flag_fixed):
        flag_fixed(())
        seq = two_segment_sequence(grid, 8, 8)
        report, cleaned = clean_and_detect(seq, mc_samples=200, seed=4)
        plain = detect(seq, mc_samples=200, seed=4)
        assert report.removed_indices == ()
        assert report.kept_indices == tuple(range(1, 17))
        assert (cleaned.k_hat, cleaned.statistic, cleaned.p_value) == \
               (plain.k_hat, plain.statistic, plain.p_value)

    def test_index_map_restores_original_positions(self, grid, flag_fixed):
        seq = two_segment_sequence(grid, 30, 30)
        removed = (10, 20)
        flag_fixed(removed)
        report, result = clean_and_detect(seq, mc_samples=200, seed=4)
        assert report.removed_indices == removed
        # detect on the manually built sub-sequence, then map by hand
        sub = seq.subsequence(report.kept_indices)
        sub_result = detect(sub, mc_samples=200, seed=4)
        assert result.k_hat == report.kept_indices[sub_result.k_hat - 1]
        assert result.k_hat in report.kept_indices

    def test_clean_partitions_and_reports_whisker(self, grid, flag_fixed):
        seq = two_segment_sequence(grid, 4, 4)
        whiskers = flag_fixed((2, 5))
        report = clean(seq, 2.5)
        assert report.removed_indices == (2, 5)
        assert report.kept_indices == (1, 3, 4, 6, 7, 8)
        assert report.whisker == 2.5
        assert whiskers == [2.5]
        assert clean(seq).whisker == 1.5

    def test_infinite_whisker_refused_before_flagging(self, grid, flag_fixed):
        whiskers = flag_fixed(())
        with pytest.raises(StructuralError, match="finite"):
            clean(two_segment_sequence(grid, 4, 4), np.inf)
        assert whiskers == []

    def test_over_aggressive_cleaning_rejected(self, grid, flag_fixed):
        seq = two_segment_sequence(grid, 3, 3)
        flag_fixed((1, 2, 3))
        with pytest.raises(DegenerateInputError):
            clean_and_detect(seq, mc_samples=50)

    @given(st.sets(st.integers(min_value=1, max_value=30), max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_partition_and_monotone_map(self, removed):
        n = 30
        kept = tuple(i for i in range(1, n + 1) if i not in removed)
        if len(kept) < 4:
            return
        report = CleaningReport(
            removed_indices=tuple(sorted(removed)), kept_indices=kept, whisker=1.5,
        )
        assert set(report.removed_indices) | set(report.kept_indices) == set(range(1, n + 1))
        assert set(report.removed_indices) & set(report.kept_indices) == set()
        mapped = [report.map_position(j) for j in range(1, len(kept) + 1)]
        assert mapped == sorted(mapped)
        assert all(m in kept for m in mapped)
