"""CUSUM profile, covariance eigenstructure, Monte Carlo limit, detection."""

import numpy as np
import pytest
from scipy.optimize import brentq

from bayes_cpd import (
    DistributionalSequence,
    Grid,
    b_add,
    b_inner,
    b_smul,
    beta_density,
    clr,
    cusum_profile,
    detect,
    p_value,
    simulate_limit_samples,
    zero_avoid,
)
from bayes_cpd import engine
from bayes_cpd.engine import (
    DEFAULT_BRIDGE_NODES,
    _covariance_eigen_from_matrix,
    _method_matrix,
    _residual_matrix,
    _simulate_chunk,
    _simulate_limit_samples,
    mean_increment,
)
from bayes_cpd.errors import DegenerateInputError, DomainError, NumericError, StructuralError
from bayes_cpd.simlab import gen_model1, gen_sim1

from helpers import (
    constant_sequence,
    dense_covariance_eigen,
    random_beta,
    random_sequence,
    reference_simulate_chunk,
    two_segment_sequence,
)


def bayes_cusum_oracle(seq, k):
    """Eq-style CUSUM built purely from perturbation/powering chains."""
    densities = seq.densities
    n = seq.n
    partial = densities[0]
    for f in densities[1:k]:
        partial = b_add(partial, f)
    total = densities[0]
    for f in densities[1:]:
        total = b_add(total, f)
    return b_smul(1.0 / np.sqrt(n), b_add(partial, b_smul(-k / n, total)))


class TestClrCusum:
    """The profile's squared norms are those of the Bayes-domain CUSUM."""

    def test_constant_sequence_vanishes(self, grid):
        profile = cusum_profile(constant_sequence(grid, 8))
        for k in (1, 3, 8):
            assert profile.norm_sq_at(k) < 1e-24

    def test_k_equals_n_is_zero(self, grid):
        rng = np.random.default_rng(20)
        seq = random_sequence(grid, rng, 6)
        assert cusum_profile(seq).norm_sq_at(6) == 0.0

    def test_matches_bayes_domain_chain(self, grid):
        rng = np.random.default_rng(21)
        seq = random_sequence(grid, rng, 10)
        profile = cusum_profile(seq)
        for k in (1, 4, 9):
            oracle = bayes_cusum_oracle(seq, k)
            assert profile.norm_sq_at(k) == pytest.approx(b_inner(oracle, oracle), rel=1e-9)


def brute_force_profile(seq):
    """Norms recomputed per split without shared prefix sums."""
    mat = seq.clr_matrix()
    n = mat.shape[0]
    w = seq.grid.weights
    out = np.empty(n)
    for k in range(1, n + 1):
        c = (mat[:k].sum(axis=0) - (k / n) * mat.sum(axis=0)) / np.sqrt(n)
        out[k - 1] = c @ (w * c)
    return out


class TestCusumProfile:
    def test_constant_sequence_degenerate(self, grid):
        prof = cusum_profile(constant_sequence(grid, 10))
        assert prof.degenerate
        assert prof.argmax_k == 1
        assert np.all(prof.norms_sq < 1e-12)

    def test_reversal_identity(self, grid):
        rng = np.random.default_rng(22)
        seq = random_sequence(grid, rng, 9)
        fwd = cusum_profile(seq).norms_sq
        rev = cusum_profile(DistributionalSequence(grid, seq.values[::-1])).norms_sq
        n = seq.n
        for k in range(1, n):
            assert abs(rev[k - 1] - fwd[n - k - 1]) < 1e-12
        assert fwd[n - 1] == 0.0 and rev[n - 1] == 0.0

    def test_matches_brute_force_scan(self, grid):
        rng = np.random.default_rng(23)
        seq = random_sequence(grid, rng, 12)
        np.testing.assert_allclose(cusum_profile(seq).norms_sq,
                                   brute_force_profile(seq), atol=1e-12)

    def test_strong_break_peaks_at_true_split(self, grid):
        for seed in (11, 12, 13):
            seq = gen_sim1(100, 50, seed, grid)
            prof = cusum_profile(seq)
            assert abs(prof.argmax_k - 50) <= 2
            np.testing.assert_allclose(prof.norms_sq, brute_force_profile(seq),
                                       atol=1e-10)


class TestLocate:
    def test_constant_sequence(self, grid):
        assert cusum_profile(constant_sequence(grid, 6)).argmax_k == 1

    def test_length_four_exhaustive(self, grid):
        seq = two_segment_sequence(grid, 2, 2)
        brute = brute_force_profile(seq)
        assert int(np.argmax(brute)) + 1 == 2
        assert cusum_profile(seq).argmax_k == 2

    def test_strong_change_localizes_exactly(self, grid):
        hits = sum(cusum_profile(gen_model1(100, 50, 1000 + r, grid)).argmax_k == 50
                   for r in range(20))
        assert hits >= 19  # >= 95% of replicates

    def test_tie_break_takes_smallest(self, grid):
        # palindromic sequence: profile symmetric, so ties resolve left
        f = zero_avoid(beta_density(grid, 12, 12))
        g = zero_avoid(beta_density(grid, 6, 14))
        seq = DistributionalSequence.from_densities((f, g, g, f))
        prof = cusum_profile(seq)
        peak = prof.norms_sq.max()
        winners = np.nonzero(prof.norms_sq == peak)[0] + 1
        assert prof.argmax_k == winners[0]

    def test_duplicating_elements_preserves_relative_argmax(self, grid):
        seq = two_segment_sequence(grid, 3, 5)
        doubled = DistributionalSequence(grid, np.repeat(seq.values, 2, axis=0))
        assert cusum_profile(seq).argmax_k == 3
        assert cusum_profile(doubled).argmax_k == 6  # same relative position k/n


class TestTestStatistic:
    def test_constant_sequence_zero(self, grid):
        assert cusum_profile(constant_sequence(grid, 8)).statistic == pytest.approx(0.0, abs=1e-12)

    def test_is_profile_max(self, grid):
        rng = np.random.default_rng(24)
        seq = random_sequence(grid, rng, 10)
        profile = cusum_profile(seq)
        assert profile.statistic == profile.norms_sq.max()

    def test_grows_with_shift_magnitude(self, grid):
        stats = []
        for shift in (0.5, 1.0, 2.0, 4.0):
            seq = two_segment_sequence(grid, 10, 10, pre=(12, 12), post=(12 + shift, 12))
            stats.append(cusum_profile(seq).statistic)
        assert all(a < b for a, b in zip(stats, stats[1:]))


class TestResiduals:
    def test_constant_global_all_zero(self, grid):
        res = _residual_matrix(constant_sequence(grid, 6).clr_matrix())
        assert np.abs(res).max() < 1e-12

    def test_global_residuals_sum_to_zero(self, grid):
        rng = np.random.default_rng(25)
        seq = random_sequence(grid, rng, 9)
        total = _residual_matrix(seq.clr_matrix()).sum(axis=0)
        assert np.abs(total).max() < 1e-10

    def test_rows_less_sequence_mean(self, grid):
        mat = random_sequence(grid, np.random.default_rng(31), 7).clr_matrix()
        before = mat.copy()
        res = _residual_matrix(mat)
        np.testing.assert_allclose(res, mat - mat.mean(axis=0), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(mat, before)

    def test_common_row_offset_cancels(self, grid):
        mat = random_sequence(grid, np.random.default_rng(32), 7).clr_matrix()
        offset = np.linspace(-1.0, 1.0, mat.shape[1])
        np.testing.assert_allclose(_residual_matrix(mat + offset), _residual_matrix(mat),
                                   rtol=0.0, atol=1e-12)


class TestCovarianceEigen:
    def _random_residuals(self, grid, rng, n):
        seq = random_sequence(grid, rng, n)
        return _residual_matrix(seq.clr_matrix())

    def _eigen(self, grid, res, theta=0.95):
        return _covariance_eigen_from_matrix(res, grid.weights, theta)

    def test_zero_residuals_degenerate(self, grid):
        eig = self._eigen(grid, np.zeros((5, grid.node_count)))
        assert eig.truncation == 0 and eig.retained().size == 0
        assert np.all(eig.eigenvalues == 0.0)

    def test_rank_bounded_by_sample_size(self, grid):
        rng = np.random.default_rng(26)
        eig = self._eigen(grid, self._random_residuals(grid, rng, 10))
        assert np.count_nonzero(eig.eigenvalues > 1e-12 * eig.eigenvalues[0]) <= 10

    def test_trace_identity(self, grid):
        rng = np.random.default_rng(27)
        mat = self._random_residuals(grid, rng, 8)
        eig = self._eigen(grid, mat)
        diag = np.einsum("ij,ij->j", mat, mat) / mat.shape[0]
        assert eig.eigenvalues.sum() == pytest.approx(float(grid.weights @ diag), rel=1e-6)

    def test_descending_and_clipped_nonnegative(self, grid):
        rng = np.random.default_rng(29)
        eig = self._eigen(grid, self._random_residuals(grid, rng, 7))
        assert np.all(np.diff(eig.eigenvalues) <= 1e-10)
        assert np.all(eig.eigenvalues >= 0.0)

    def test_truncation_is_minimal(self, grid):
        rng = np.random.default_rng(30)
        eig = self._eigen(grid, self._random_residuals(grid, rng, 12), theta=0.95)
        share = np.cumsum(eig.eigenvalues) / eig.eigenvalues.sum()
        L = eig.truncation
        assert share[L - 1] >= 0.95
        if L > 1:
            assert share[L - 2] < 0.95
        np.testing.assert_array_equal(eig.retained(), eig.eigenvalues[:L])

    @pytest.mark.parametrize("theta", [0.95, 1.0])
    @pytest.mark.parametrize("method", ["bayes-clr", "l2-raw"])
    @pytest.mark.parametrize("shape", ["no-change", "mid-shift"])
    @pytest.mark.parametrize("n", [8, 16, 40], ids=["n<m", "n=m", "n>m"])
    def test_smaller_problem_matches_dense_eigh(self, n, shape, method, theta):
        grid = Grid(16)
        rng = np.random.default_rng(1000 + n)
        seq = random_sequence(grid, rng, n)
        if shape == "mid-shift":
            # A mean change at n // 2: the residuals about the sequence mean carry it.
            shift = zero_avoid(beta_density(grid, 6.0, 14.0))
            seq = DistributionalSequence.from_densities(
                f if i < n // 2 else b_add(f, shift) for i, f in enumerate(seq.densities))
        res = _residual_matrix(_method_matrix(seq, method))
        eig = _covariance_eigen_from_matrix(res, grid.weights, theta)
        ref, ref_truncation = dense_covariance_eigen(res, grid.weights, theta)
        assert eig.eigenvalues.size == min(n, grid.node_count)
        assert eig.truncation == ref_truncation > 0
        np.testing.assert_allclose(eig.retained(), ref[:ref_truncation],
                                   rtol=0.0, atol=1e-12 * ref[0])


def kolmogorov_quantile(p):
    """Invert P(sup|B| <= x) = 1 - 2 sum (-1)^(k-1) exp(-2 k^2 x^2)."""
    def cdf(x):
        k = np.arange(1, 200)
        return 1.0 - 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))
    return brentq(lambda x: cdf(x) - p, 0.3, 4.0)


class TestLimitSimulation:
    def test_zero_eigenvalue_gives_zero_samples(self):
        samples = simulate_limit_samples([0.0], 64, bridge_nodes=64, seed=1)
        assert np.all(samples == 0.0)

    def test_linear_scaling_in_eigenvalue(self):
        base = simulate_limit_samples([1.0], 500, bridge_nodes=101, seed=9)
        scaled = simulate_limit_samples([2.5], 500, bridge_nodes=101, seed=9)
        np.testing.assert_array_equal(scaled, 2.5 * base)

    def test_thread_count_does_not_change_samples(self):
        one = simulate_limit_samples([0.7, 0.2], 1000, bridge_nodes=101, seed=4, threads=1)
        many = simulate_limit_samples([0.7, 0.2], 1000, bridge_nodes=101, seed=4, threads=4)
        np.testing.assert_array_equal(one, many)

    def test_single_bridge_sup_matches_kolmogorov_law(self):
        # coarse version; the acceptance suite runs the strict 1% check
        samples = simulate_limit_samples([1.0], 20000, bridge_nodes=2001, seed=77, threads=2)
        emp = float(np.percentile(np.sqrt(samples), 95))
        assert emp == pytest.approx(kolmogorov_quantile(0.95), rel=0.025)

    def test_corrected_single_bridge_tail_share_at_default_nodes(self):
        # the continuity shift puts the default grid's sup on the continuous law
        samples = simulate_limit_samples([1.0], 40_000, seed=5, threads=2)
        share = float(np.mean(samples >= kolmogorov_quantile(0.95) ** 2))
        se = np.sqrt(0.05 * 0.95 / samples.size)
        assert abs(share - 0.05) <= 3.0 * se, share

    def test_corrected_three_bridge_tail_share_at_default_nodes(self):
        # no closed form at L > 1: a 1001-node draw on its own seed is the
        # reference; a coarse grid drifts first in the body of the law
        eigen, count = [0.6, 0.3, 0.1], 20_000
        reference = simulate_limit_samples(eigen, count, bridge_nodes=1001, seed=11, threads=2)
        samples = simulate_limit_samples(eigen, count, seed=12, threads=2)
        for level in (0.5, 0.95, 0.99):
            point = np.quantile(reference, level)
            shares = [float(np.mean(s >= point)) for s in (samples, reference)]
            pooled = sum(shares) / 2
            se = np.sqrt(pooled * (1.0 - pooled) * 2.0 / count)
            assert abs(shares[0] - shares[1]) <= 4.0 * se, (level, shares)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eigen", [[0.0], [0.0, 0.0], [1.0, 0.0], [0.6, 0.3, 0.0, 0.0]])
    def test_zero_and_zero_padded_vectors_give_finite_samples(self, eigen):
        samples = simulate_limit_samples(eigen, 300, bridge_nodes=64, seed=2)
        assert np.all(np.isfinite(samples)) and np.all(samples >= 0.0)
        assert np.all(samples == 0.0) == (max(eigen) == 0.0)

    @pytest.mark.parametrize("bridge_nodes", [DEFAULT_BRIDGE_NODES, 1001])
    @pytest.mark.parametrize("count", [256, 208])
    @pytest.mark.parametrize("L", [1, 3, 10, 28])
    def test_blocked_chunk_is_bit_identical_to_one_draw(self, monkeypatch, L, count,
                                                         bridge_nodes):
        # 3-sample blocks: many blocks, and a 1-sample last block at both counts
        monkeypatch.setattr(engine, "_MC_BLOCK", 3 * L * (bridge_nodes - 1))
        lambdas = np.linspace(1.0, 0.05, L)
        (got,) = _simulate_chunk((lambdas,), count, bridge_nodes, 1234 + L)
        assert np.array_equal(got, reference_simulate_chunk(lambdas, count, bridge_nodes,
                                                            1234 + L))

    @pytest.mark.parametrize("L", [3, 299])
    def test_chunk_draws_stay_within_one_block(self, monkeypatch, L):
        drawn = []
        default_rng = np.random.default_rng

        class RecordingGenerator:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                drawn.append(np.shape(out) if out is not None else size)
                return self._rng.standard_normal(size, dtype, out)

        monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
        lambdas, count, bridge_nodes = np.linspace(1.0, 0.01, L), 5, 1001
        per_sample = L * (bridge_nodes - 1)
        (got,) = _simulate_chunk((lambdas,), count, bridge_nodes, 7)
        monkeypatch.undo()
        sizes = [int(np.prod(shape)) for shape in drawn]
        assert max(sizes) <= max(engine._MC_BLOCK, per_sample)
        assert sum(sizes) == count * per_sample
        assert np.array_equal(got, reference_simulate_chunk(lambdas, count, bridge_nodes, 7))

    def test_empty_eigenvalues_rejected(self):
        with pytest.raises(DegenerateInputError):
            simulate_limit_samples([], 10)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NumericError):
            simulate_limit_samples([-1.0], 10)


class TestSharedDraw:
    """Several eigenvalue vectors on one draw of max-L bridges."""

    @pytest.mark.parametrize("mc_samples", [1, 300, 2000])  # 1 and 300: a partial chunk
    @pytest.mark.parametrize("bridge_nodes", [DEFAULT_BRIDGE_NODES, 101, 1001])
    @pytest.mark.parametrize("la, lb", [(4, 2), (1, 5), (10, 1), (3, 3)])
    def test_each_vector_gets_its_zero_padded_standalone_draw(self, la, lb, bridge_nodes,
                                                              mc_samples):
        lam_a, lam_b = np.linspace(1.0, 0.1, la), np.linspace(0.8, 0.05, lb)
        got_a, got_b = _simulate_limit_samples((lam_a, lam_b), mc_samples, bridge_nodes,
                                               seed=21, threads=2)
        larger, smaller = (lam_a, lam_b) if la >= lb else (lam_b, lam_a)
        got_larger, got_smaller = (got_a, got_b) if la >= lb else (got_b, got_a)
        # at equal L the padding is empty: both vectors get their own standalone draws
        padded = np.concatenate([smaller, np.zeros(larger.size - smaller.size)])
        assert np.array_equal(got_larger,
                              simulate_limit_samples(larger, mc_samples, bridge_nodes, seed=21))
        assert np.array_equal(got_smaller,
                              simulate_limit_samples(padded, mc_samples, bridge_nodes, seed=21))

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad, error", [([], DegenerateInputError),
                                            ([0.5, -1.0], NumericError),
                                            ([np.nan], NumericError)])
    def test_bad_vector_in_any_position_rejected(self, position, bad, error):
        eigens = [[1.0, 0.5], [0.3], [0.2, 0.1]]
        eigens[position] = bad
        with pytest.raises(error):
            _simulate_limit_samples(eigens, 10, bridge_nodes=64)


class TestPValue:
    def test_zero_statistic(self):
        assert p_value(0.0, [0.1, 0.2, 0.3]) == 1.0

    def test_statistic_above_all_samples(self):
        assert p_value(10.0, [0.1, 0.2, 0.3]) == 0.0

    def test_median_statistic(self):
        rng = np.random.default_rng(31)
        samples = rng.exponential(size=1001)
        p = p_value(float(np.median(samples)), samples)
        assert abs(p - 0.5) <= 1.0 / samples.size

    def test_values_on_grid_of_fractions(self):
        samples = [0.5, 1.5, 2.5, 3.5]
        for stat in (0.0, 1.0, 2.0, 3.0, 4.0):
            p = p_value(stat, samples)
            assert p in {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_monotone_in_statistic(self):
        rng = np.random.default_rng(32)
        samples = rng.exponential(size=200)
        stats = np.linspace(0, 5, 40)
        ps = [p_value(s, samples) for s in stats]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_empty_samples_rejected(self):
        with pytest.raises(StructuralError):
            p_value(1.0, [])


class TestDetect:
    def test_constant_sequence_never_rejects(self, grid):
        result = detect(constant_sequence(grid, 10), mc_samples=50, seed=0)
        assert not result.reject_null
        assert result.degenerate
        assert result.p_value == 1.0
        assert result.statistic == pytest.approx(0.0, abs=1e-12)

    def test_seed_determinism(self, grid):
        rng = np.random.default_rng(33)
        seq = random_sequence(grid, rng, 12)
        a = detect(seq, mc_samples=300, seed=5)
        b = detect(seq, mc_samples=300, seed=5)
        assert a.k_hat == b.k_hat
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.eigenvalues == b.eigenvalues

    def test_strong_break_detected(self, grid):
        seq = two_segment_sequence(grid, 20, 20)
        result = detect(seq, mc_samples=400, seed=3)
        assert result.reject_null
        assert result.k_hat == 20
        assert result.increment is not None
        target = b_add(seq.densities[-1], b_smul(-1.0, seq.densities[0]))
        assert np.abs(result.increment.values - target.values).max() < 1e-9

    def test_result_invariants(self, grid):
        rng = np.random.default_rng(34)
        for _ in range(5):
            seq = random_sequence(grid, rng, 8)
            result = detect(seq, mc_samples=100, seed=2)
            assert result.reject_null == (result.p_value < result.alpha)
            assert 1 <= result.k_hat <= seq.n
            assert len(result.eigenvalues) == result.L

    def test_centering_always_global(self, grid):
        seq = two_segment_sequence(grid, 10, 10)
        assert detect(seq, mc_samples=100, seed=1).centering == "global"
        with pytest.raises(TypeError):
            detect(seq, mc_samples=100, centering="global")


class TestPipelineFactoring:
    @pytest.mark.parametrize("method", ["bayes-clr", "l2-raw"])
    def test_detect_reports_profile_of_method(self, grid, method):
        rng = np.random.default_rng(35)
        seq = random_sequence(grid, rng, 10)
        result = detect(seq, 0.05, 200, 0.95, 8, method=method, bridge_nodes=201)
        profile = cusum_profile(seq, method)
        assert (result.k_hat, result.statistic) == (profile.argmax_k, profile.statistic)
        assert result.method == method

    def test_unknown_method_rejected(self, grid):
        seq = random_sequence(grid, np.random.default_rng(37), 6)
        with pytest.raises(StructuralError, match="unknown method"):
            detect(seq, mc_samples=50, method="l1-raw")
        with pytest.raises(StructuralError, match="unknown method"):
            cusum_profile(seq, "l1-raw")

    def test_l2_constant_sequence_never_rejects(self, grid):
        result = detect(constant_sequence(grid, 8), mc_samples=50, seed=0, method="l2-raw")
        assert not result.reject_null and result.degenerate


class TestSettingsChecked:
    """A setting out of range fails before the data are looked at."""

    @pytest.mark.parametrize("name, value", [
        ("theta", 2.0), ("theta", 0.0), ("theta", -1.0), ("alpha", 1.5), ("alpha", 0.0),
        ("mc_samples", 0), ("bridge_nodes", 3), ("bridge_nodes", 32), ("method", "bogus"),
        ("theta", float("nan")), ("alpha", float("nan")),
    ])
    @pytest.mark.parametrize("shape", ["regular", "identical-rows"])
    def test_bad_setting_rejected_on_every_input(self, name, value, shape):
        seq = gen_model1(60, 30, 3) if shape == "regular" else constant_sequence(Grid(64), 6)
        with pytest.raises(StructuralError):
            detect(seq, **{"mc_samples": 50, "seed": 1, name: value})

    def test_smallest_bridge_grid_accepted(self):
        engine.check_settings(bridge_nodes=33)
        result = detect(gen_model1(60, 30, 3), mc_samples=50, seed=1, bridge_nodes=33)
        assert 0.0 <= result.p_value <= 1.0


class TestMeanIncrement:
    def test_two_segment_increment_is_bayes_difference(self, grid):
        seq = two_segment_sequence(grid, 6, 6, pre=(10, 10), post=(5, 12))
        inc = mean_increment(seq, 6)
        target = b_add(seq.densities[-1], b_smul(-1.0, seq.densities[0]))
        assert np.abs(inc.values - target.values).max() < 1e-9

    def test_boundary_split_rejected(self, grid):
        seq = two_segment_sequence(grid, 3, 3)
        with pytest.raises(DegenerateInputError):
            mean_increment(seq, 6)


class TestSequenceType:
    def test_minimum_length_enforced(self, grid):
        f = zero_avoid(beta_density(grid, 5, 5))
        with pytest.raises(DegenerateInputError):
            DistributionalSequence.from_densities((f, f, f))

    def test_mixed_grids_rejected(self, grid, grid1025):
        f = zero_avoid(beta_density(grid, 5, 5))
        g = zero_avoid(beta_density(grid1025, 5, 5))
        with pytest.raises(StructuralError):
            DistributionalSequence.from_densities((f, f, g, f))

    def test_first_bad_row_named_with_its_error_class(self, grid):
        good = zero_avoid(beta_density(grid, 5, 5)).values
        for bad_value, error in ((np.nan, NumericError), (-0.5, DomainError)):
            values = np.vstack([good] * 6)
            values[4, 10] = bad_value
            values[5] *= 2.0  # a later row with a bad integral is not the first
            with pytest.raises(error, match="density row 5") as info:
                DistributionalSequence(grid, values)
            assert info.value.record == 5
        with pytest.raises(StructuralError, match="density row 2"):
            DistributionalSequence(grid, np.vstack([good, 2.0 * good, good, good]))

    def test_values_and_clr_are_read_only_and_clr_is_cached(self, grid):
        rng = np.random.default_rng(40)
        seq = random_sequence(grid, rng, 6)
        assert not seq.values.flags.writeable
        mat = seq.clr_matrix()
        assert mat is seq.clr_matrix() and not mat.flags.writeable
        per_row = np.vstack([clr(f).values for f in seq.densities])
        np.testing.assert_allclose(mat, per_row, rtol=0, atol=1e-14)

    def test_subsequence_and_reversed_index_rows(self, grid):
        rng = np.random.default_rng(41)
        seq = random_sequence(grid, rng, 7)
        sub = seq.subsequence((2, 5, 6, 7))
        np.testing.assert_array_equal(sub.values, seq.values[[1, 4, 5, 6]])
        rev = DistributionalSequence(grid, seq.values[::-1])
        np.testing.assert_array_equal(rev.values, seq.values[::-1])
        assert not sub.values.flags.writeable and not rev.values.flags.writeable
        for bad in ((0, 1, 2, 3), (1, 2, 3, 8)):
            with pytest.raises(StructuralError):
                seq.subsequence(bad)
        with pytest.raises(DegenerateInputError):
            seq.subsequence((1, 2, 3))

    def test_from_densities_round_trip(self, grid):
        rng = np.random.default_rng(42)
        densities = [random_beta(grid, rng) for _ in range(5)]
        seq = DistributionalSequence.from_densities(densities)
        assert seq.n == 5
        for f, g in zip(densities, seq.densities):
            np.testing.assert_array_equal(f.values, g.values)
