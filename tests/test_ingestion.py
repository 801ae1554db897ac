"""Raw-series segmentation, support mapping, KDE, and the full pipeline."""

import numpy as np
import pytest

from bayes_cpd import (
    Grid,
    IngestConfig,
    RawSeries,
    build_sequence,
    detect,
    estimate_support,
    kde,
    normalize,
    segment,
    silverman_bandwidth,
)
from bayes_cpd.density import clr_rows
from bayes_cpd.ingestion import (
    KDE_BINS_PER_BANDWIDTH,
    MIN_BANDWIDTH,
    SupportEstimate,
    count_outside_support,
    kde_bin_count,
)
from bayes_cpd.errors import DegenerateInputError, StructuralError
from bayes_cpd.seeds import derive_seed
from helpers import exact_reflected_kde


def hourly_series(days, values=None):
    t = np.arange(days * 24) * 3600.0
    v = np.sin(t / 7000.0) + 2.0 if values is None else values
    return RawSeries(t, v)


class TestSegment:
    def test_daily_windows_of_hourly_samples(self):
        series = hourly_series(10)
        # default min_count=30 would drop 24-sample days; set it below 24
        result = segment(series, 86400.0, min_count=10)
        assert len(result.segments) == 10
        assert all(s.size == 24 for s in result.segments)
        assert result.dropped == []

    def test_default_min_count_drops_sparse_windows(self):
        result = segment(hourly_series(3), 86400.0)
        assert result.segments == []
        assert result.dropped == [(0, 24), (1, 24), (2, 24)]

    def test_short_series_single_segment(self):
        series = RawSeries(np.arange(40) * 60.0, np.ones(40))
        result = segment(series, 86400.0)
        assert len(result.segments) == 1
        assert result.segments[0].size == 40

    def test_boundaries_by_time_not_count(self):
        # irregular gaps: brute-force timestamp scan as the oracle
        rng = np.random.default_rng(17)
        t = np.sort(rng.uniform(0, 5 * 86400.0, 700))
        t = t[(t < 2 * 86400.0) | (t > 3 * 86400.0)]  # hole spanning window 2
        series = RawSeries(t, np.ones(t.size))
        result = segment(series, 86400.0, min_count=1)
        for j, values in zip(result.segment_indices, result.segments):
            lo = t[0] + j * 86400.0
            expected = np.count_nonzero((t >= lo) & (t < lo + 86400.0))
            assert values.size == expected
        dropped_ids = [j for j, _ in result.dropped]
        assert any(t[0] + 2 * 86400.0 <= t_j < t[0] + 3 * 86400.0 for t_j in [t[0] + 2 * 86400.0]) \
            and 2 in dropped_ids  # the hole produces an empty window

    def test_invalid_window(self):
        with pytest.raises(StructuralError):
            segment(hourly_series(2), 0.0)

    def test_empty_series_rejected(self):
        with pytest.raises(StructuralError):
            RawSeries(np.array([]), np.array([]))

    @pytest.mark.parametrize("window", [float("nan"), -float("inf")])
    def test_nan_or_negative_infinite_window_rejected(self, window):
        with pytest.raises(StructuralError, match="window"):
            segment(hourly_series(2), window)

    def test_contiguous_runs_match_mask_split(self):
        # hourly windows holding 0 (gaps), a few, and min_count +- 1 samples,
        # with repeated timestamps; one boolean mask per window is the oracle
        rng = np.random.default_rng(23)
        counts = [31, 0, 0, 5, 29, 30, 1, 0, 200, 2, 30, 0, 64]
        t = np.concatenate([np.sort(rng.integers(0, 3600, c)) + 3600.0 * j
                            for j, c in enumerate(counts)])
        t = t - t[0]
        series = RawSeries(t, rng.normal(size=t.size))
        result = segment(series, 3600.0, min_count=30)
        window_ids = np.floor(t / 3600.0).astype(np.int64)
        kept, dropped = [], []
        for j in range(int(window_ids[-1]) + 1):
            values = series.values[window_ids == j]
            if values.size >= 30:
                kept.append((j, values))
            else:
                dropped.append((j, int(values.size)))
        assert result.segment_indices == [j for j, _ in kept]
        for got, (_, want) in zip(result.segments, kept, strict=True):
            np.testing.assert_array_equal(got, want)
        assert result.dropped == dropped


class TestSupport:
    def test_margin_widens_range(self):
        sup = estimate_support([2.0, 3.0, 4.0], margin_fraction=0.05)
        assert (sup.lower, sup.upper) == (1.9, 4.1)

    def test_zero_margin_is_min_max(self):
        sup = estimate_support([2.0, 4.0], margin_fraction=0.0)
        assert (sup.lower, sup.upper) == (2.0, 4.0)

    def test_degenerate_support_rejected(self):
        with pytest.raises(DegenerateInputError):
            estimate_support([3.0, 3.0, 3.0])

    def test_positive_margin_keeps_data_interior(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=500)
        sup = estimate_support(values, margin_fraction=0.05)
        unit = normalize(values, sup)
        assert np.all((unit > 0.0) & (unit < 1.0))


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        sup = SupportEstimate(2.0, 4.0, 0.0)
        np.testing.assert_allclose(normalize([2.0, 3.0, 4.0], sup), [0.0, 0.5, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        sup = SupportEstimate(-1.5, 7.25, 0.05)
        values = rng.uniform(-1.5, 7.25, 300)
        back = sup.lower + normalize(values, sup) * (sup.upper - sup.lower)
        np.testing.assert_allclose(back, values, atol=1e-12)

    def test_clamping_counted(self):
        sup = SupportEstimate(0.0, 1.0, 0.0)
        values = np.array([-0.5, 0.5, 1.5, 0.2])
        assert count_outside_support(values, sup) == 2
        unit = normalize(values, sup)
        assert unit.min() == 0.0 and unit.max() == 1.0


class TestBandwidth:
    def test_formula(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=400)
        sd = np.std(x, ddof=1)
        q3, q1 = np.percentile(x, [75, 25])
        expected = 1.06 * min(sd, (q3 - q1) / 1.34) * 400 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)

    def test_constant_samples_floored(self):
        with pytest.warns(UserWarning):
            assert silverman_bandwidth(np.full(50, 0.3)) == 1e-3


class TestKde:
    def test_large_uniform_sample_recovers_uniform(self, grid):
        rng = np.random.default_rng(11)
        f = kde(rng.uniform(size=100_000), grid)
        assert np.abs(f.values - 1.0).max() < 0.05

    def test_symmetric_samples_give_symmetric_density(self, grid):
        rng = np.random.default_rng(12)
        half = rng.uniform(0, 0.5, 400)
        samples = np.concatenate([half, 1.0 - half])
        f = kde(samples, grid, bandwidth=0.05)
        assert np.abs(f.values - f.values[::-1]).max() < 1e-10

    def test_output_is_floored_unit_density(self, grid):
        rng = np.random.default_rng(13)
        f = kde(rng.beta(4, 6, 300), grid)
        assert f.min_value() >= 0.1
        assert float(grid.weights @ f.values) == pytest.approx(1.0, abs=1e-6)

    def test_samples_outside_unit_interval_rejected(self, grid):
        with pytest.raises(StructuralError):
            kde(np.array([0.2, 1.4]), grid)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), -float("inf"),
                                           0.0, -0.1, 1e-5, MIN_BANDWIDTH / 2])
    def test_non_finite_or_sub_floor_bandwidth_rejected(self, grid, bandwidth):
        with pytest.raises(StructuralError, match="bandwidth"):
            kde(np.array([0.2, 0.4, 0.6]), grid, bandwidth)

    @pytest.mark.parametrize("nodes", [16, 64, 512, 2048, 8193])
    def test_lattice_size_bounded_at_min_bandwidth(self, nodes):
        refine, bins = kde_bin_count(Grid(nodes), MIN_BANDWIDTH)
        assert bins == (nodes - 1) * refine + 1  # every grid node is a bin
        assert (bins - 1) * MIN_BANDWIDTH >= KDE_BINS_PER_BANDWIDTH
        assert bins <= nodes + KDE_BINS_PER_BANDWIDTH / MIN_BANDWIDTH

    def test_bandwidth_far_below_spacing_still_reaches_a_node(self):
        # on 16 nodes, 1e-3 is 1/67 of the spacing: samples midway between
        # two nodes are 33 bandwidths from both, and land on both equally
        grid = Grid(16)
        samples = np.full(100, 7.5 / 15)
        binned = kde(samples, grid, MIN_BANDWIDTH).values
        exact = exact_reflected_kde(samples, grid, MIN_BANDWIDTH).values
        np.testing.assert_allclose(binned, exact, rtol=1e-9)

    @pytest.mark.parametrize("bandwidth", [MIN_BANDWIDTH, None, 0.3],
                             ids=["min", "silverman", "0.3"])
    @pytest.mark.parametrize("nodes", [64, 512, 2048])
    def test_binned_estimate_matches_exact_sum(self, nodes, bandwidth):
        # 20,000 samples of a bimodal day, mapped into the support margin.
        # Binning error grows as fewer samples fall within a bandwidth: at
        # MIN_BANDWIDTH it is at most 6.3e-4 here, about 4e-3 for 50 samples.
        rng = np.random.default_rng(2024)
        n = 20_000
        pick = rng.uniform(size=n) < 0.5
        x = np.where(pick, rng.beta(30, 18, n), rng.beta(3, 5, n))
        samples = 0.05 + 0.9 * x
        grid = Grid(nodes)
        h = silverman_bandwidth(samples) if bandwidth is None else bandwidth
        binned = kde(samples, grid, h).values
        exact = exact_reflected_kde(samples, grid, h).values
        assert np.abs(binned - exact).max() <= 1e-3 * exact.max()
        diff = clr_rows(grid, binned[None, :]) - clr_rows(grid, exact[None, :])
        assert np.sqrt((diff * diff) @ grid.weights)[0] <= 1e-3


def synth_series(seed, n_days, switch_day, per_day=240, lo=2.0, hi=4.0):
    """Daily Beta draws on [lo, hi]; mixture family after switch_day."""
    rng = np.random.default_rng(seed)
    ts, vals = [], []
    for day in range(n_days):
        if day < switch_day:
            x = rng.beta(rng.uniform(10, 15), rng.uniform(10, 15), per_day)
        else:
            a1, b1 = rng.uniform(25, 40), rng.uniform(15, 20)
            a2, b2 = rng.uniform(2, 4), rng.uniform(4, 6)
            pick = rng.uniform(size=per_day) < 0.5
            x = np.where(pick, rng.beta(a1, b1, per_day), rng.beta(a2, b2, per_day))
        ts.append(day * 86400.0 + np.arange(per_day) * (86400.0 / per_day))
        vals.append(lo + (hi - lo) * x)
    return RawSeries(np.concatenate(ts), np.concatenate(vals))


class TestBuildSequence:
    def test_one_density_per_day_in_time_order(self):
        series = synth_series(1, n_days=8, switch_day=8)
        seq, report = build_sequence(series, IngestConfig())
        assert seq.n == 8
        assert report.segments_total == 8
        assert report.segments_dropped == []
        assert len(report.bandwidth_per_segment) == 8

    def test_support_matches_min_max_margin(self):
        from bayes_cpd.cleaning import boxplot_keep_mask

        series = synth_series(2, n_days=6, switch_day=6)
        seq, report = build_sequence(series, IngestConfig())
        kept = series.values[boxplot_keep_mask(series.values, 1.5)]
        assert report.scalar_outliers_removed == series.values.size - kept.size
        span = kept.max() - kept.min()
        assert report.support.lower == pytest.approx(kept.min() - 0.05 * span)
        assert report.support.upper == pytest.approx(kept.max() + 0.05 * span)

    def test_deterministic(self):
        series = synth_series(3, n_days=6, switch_day=3)
        a, _ = build_sequence(series, IngestConfig())
        b, _ = build_sequence(series, IngestConfig())
        for fa, fb in zip(a.densities, b.densities):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_too_few_segments_rejected(self):
        series = synth_series(4, n_days=3, switch_day=3)
        with pytest.raises(DegenerateInputError):
            build_sequence(series, IngestConfig())

    def test_external_support_covers_everything(self):
        series = synth_series(5, n_days=6, switch_day=6)
        cfg = IngestConfig(support=(0.0, 10.0))
        _, report = build_sequence(series, cfg)
        assert report.clamped_values == 0
        assert (report.support.lower, report.support.upper) == (0.0, 10.0)

    def test_null_series_rarely_rejects(self):
        non_rejections = 0
        for r in range(12):
            s = derive_seed(97531, r)
            seq, _ = build_sequence(synth_series(derive_seed(s, 0), 100, 100),
                                    IngestConfig())
            result = detect(seq, seed=derive_seed(s, 1), mc_samples=1000)
            non_rejections += (not result.reject_null)
        assert non_rejections >= 0.9 * 12

    def test_switch_at_day_fifty_recovered(self):
        hits = 0
        for r in range(10):
            s = derive_seed(2468, r)
            seq, _ = build_sequence(synth_series(derive_seed(s, 0), 100, 50),
                                    IngestConfig())
            result = detect(seq, seed=derive_seed(s, 1), mc_samples=1000)
            hits += (result.reject_null and abs(result.k_hat - 50) <= 3)
        assert hits >= 9
