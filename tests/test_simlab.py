"""Generators, contamination, and the repeated-experiment harness."""

import json

import numpy as np
import pytest

from bayes_cpd import (
    ExperimentConfig,
    Grid,
    b_dist,
    beta_density,
    clean_and_detect,
    contaminate,
    detect,
    first_moment,
    gen_model1,
    gen_model2,
    gen_model3,
    gen_outliers,
    gen_sim1,
    run_experiment,
    zero_avoid,
)
from bayes_cpd import engine, simlab
from bayes_cpd.engine import p_value, simulate_limit_samples
from bayes_cpd.errors import DegenerateInputError, DomainError, NumericError, StructuralError
from bayes_cpd.io import dump_json, experiment_report_to_dict
from bayes_cpd.seeds import derive_seed
from bayes_cpd.simlab import MODEL2_MEAN, summarize_records

from helpers import b_mean, scalar_cusum_statistic

GEN_FNS = (gen_sim1, gen_model1, gen_model2, gen_model3)


def interior_local_maxima(values):
    up = values[1:-1] > values[:-2]
    down = values[1:-1] > values[2:]
    return int(np.count_nonzero(up & down))


class TestGenerators:
    @pytest.mark.parametrize("gen", GEN_FNS)
    def test_valid_floored_densities(self, gen, grid):
        seq = gen(20, 10, seed=5, grid=grid)
        assert seq.n == 20
        for f in seq.densities:
            assert f.min_value() >= 0.1
            assert float(grid.weights @ f.values) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("gen", GEN_FNS)
    def test_seed_determinism(self, gen, grid):
        a = gen(12, 6, seed=77, grid=grid)
        b = gen(12, 6, seed=77, grid=grid)
        for fa, fb in zip(a.densities, b.densities):
            np.testing.assert_array_equal(fa.values, fb.values)

    @pytest.mark.parametrize("gen", GEN_FNS)
    def test_invalid_break_position(self, gen, grid):
        for k_star in (0, 11):
            with pytest.raises(StructuralError):
                gen(10, k_star, seed=1, grid=grid)

    @pytest.mark.parametrize("gen", GEN_FNS)
    def test_break_at_n_gives_a_no_change_sequence(self, gen, grid):
        seq = gen(10, 10, seed=1, grid=grid)
        assert seq.n == 10
        for f in seq.densities:
            assert f.min_value() >= 0.1
            assert float(grid.weights @ f.values) == pytest.approx(1.0, abs=1e-6)

    def test_model1_without_break_is_the_criterion_8_law(self, grid):
        rng = np.random.default_rng(17)
        expected = [zero_avoid(beta_density(grid, rng.uniform(10, 15), rng.uniform(10, 15)))
                    for _ in range(30)]
        seq = gen_model1(30, 30, seed=17, grid=grid)
        np.testing.assert_array_equal(seq.values, np.vstack([f.values for f in expected]))


class TestSim1:
    def test_segment_means_separated_beyond_within_spread(self, grid):
        seq = gen_sim1(100, 50, seed=11, grid=grid)
        pre, post = seq.densities[:50], seq.densities[50:]
        mean_pre, mean_post = b_mean(pre), b_mean(post)
        gap = b_dist(mean_pre, mean_post)
        spread = np.median([b_dist(f, mean_pre) for f in pre])
        assert gap > spread

    def test_sorted_parameters_induce_drift(self, grid):
        # order statistics pair small b with early indices: means drift down
        seq = gen_sim1(100, 99, seed=3, grid=grid)  # essentially no break
        moments = [first_moment(f) for f in seq.densities[:99]]
        assert moments[0] > moments[-1]


class TestModel2:
    def test_beta_mean_identity_exact(self):
        rng = np.random.default_rng(4)
        ratio = 1.0 / MODEL2_MEAN - 1.0
        for _ in range(100):
            a = rng.uniform(5, 25)
            assert a / (a + ratio * a) == pytest.approx(MODEL2_MEAN, abs=1e-12)

    def test_density_first_moments_aligned(self, grid):
        seq = gen_model2(100, 50, seed=5, grid=grid)
        moments = np.array([first_moment(f) for f in seq.densities])
        # zero-avoidance shifts the Beta mean to 0.9*0.45 + 0.1*0.5 = 0.455
        assert np.abs(moments - 0.455).max() < 1e-3

    def test_scalar_mean_cusum_blind_while_detect_rejects(self, grid):
        seq = gen_model2(100, 50, seed=6, grid=grid)
        moments = np.array([first_moment(f) for f in seq.densities])
        assert scalar_cusum_statistic(moments) < 0.01
        result = detect(seq, mc_samples=500, seed=2)
        assert result.reject_null and abs(result.k_hat - 50) <= 2


class TestModel3:
    def test_clean_mild_change_still_detected(self, grid):
        from bayes_cpd.seeds import derive_seed
        rejections = 0
        for r in range(10):
            seq = gen_model3(100, 50, derive_seed(888, r), grid)
            result = detect(seq, mc_samples=1000, seed=derive_seed(r, 1))
            rejections += result.reject_null
        assert rejections >= 9  # >= 90% of replicates


class TestOutlierGeneration:
    def test_zero_count_empty(self, grid):
        assert gen_outliers(0, seed=1, grid=grid).shape == (0, grid.node_count)

    def test_all_outputs_valid(self, grid):
        for row in gen_outliers(30, seed=2, grid=grid):
            assert row.min() >= 0.1
            assert float(grid.weights @ row) == pytest.approx(1.0, abs=1e-6)

    def test_bimodal_branch_has_two_interior_modes(self, grid):
        # classify branches by replaying the generator's draw order
        outliers = gen_outliers(40, seed=9, grid=grid)
        rng = np.random.default_rng(9)
        bimodal_seen = 0
        for row in outliers:
            z = rng.uniform()
            if z > 0.7:
                for _ in range(4):  # mu1, mu2, a1, a2
                    rng.uniform()
                bimodal_seen += 1
                assert interior_local_maxima(row) == 2
            else:
                for _ in range(5):  # y, a, b, c, d
                    rng.uniform()
        assert bimodal_seen > 0


class TestContaminate:
    def test_zero_outliers_identity(self, grid):
        seq = gen_model1(10, 5, seed=1, grid=grid)
        out, truth = contaminate(seq, gen_outliers(0, seed=1, grid=grid), seed=2)
        assert out is seq and truth == ()

    def test_replacement_bookkeeping(self, grid):
        seq = gen_model3(30, 15, seed=3, grid=grid)
        outliers = gen_outliers(6, seed=4, grid=grid)
        contaminated, truth = contaminate(seq, outliers, seed=5)
        assert len(truth) == 6 and len(set(truth)) == 6
        assert all(1 <= i <= 30 for i in truth)
        assert list(truth) == sorted(truth)
        for j, idx in enumerate(truth):
            np.testing.assert_array_equal(contaminated.densities[idx - 1].values,
                                          outliers[j])
        for idx in set(range(1, 31)) - set(truth):
            np.testing.assert_array_equal(contaminated.densities[idx - 1].values,
                                          seq.densities[idx - 1].values)

    def test_too_many_outliers(self, grid):
        seq = gen_model1(10, 5, seed=1, grid=grid)
        with pytest.raises(StructuralError):
            contaminate(seq, gen_outliers(11, seed=2, grid=grid), seed=3)

    def test_negative_outlier_row_rejected(self, grid):
        seq = gen_model1(10, 5, seed=1, grid=grid)
        outliers = gen_outliers(3, seed=2, grid=grid)
        outliers[1, 7] = -0.5
        with pytest.raises(DomainError):
            contaminate(seq, outliers, seed=3)

    @pytest.mark.parametrize("shape", [(2, 511), (2, 513), (512,)])
    def test_wrong_outlier_width_rejected(self, grid, shape):
        seq = gen_model1(10, 5, seed=1, grid=grid)
        with pytest.raises(StructuralError):
            contaminate(seq, np.ones(shape), seed=3)


def test_scalar_cusum_matches_brute_force():
    rng = np.random.default_rng(12)
    x = rng.normal(size=37)
    n = x.size
    brute = max(
        abs((x[:k].sum() - (k / n) * x.sum()) / np.sqrt(n)) for k in range(1, n + 1)
    )
    assert scalar_cusum_statistic(x) == pytest.approx(brute, rel=1e-12)


class TestRunExperiment:
    CFG = dict(generator="model2", n=40, k_star=20, mc_samples=200,
               grid_nodes=128, seed=31)

    def test_single_replicate_aggregates_equal_record(self):
        report = run_experiment(ExperimentConfig(replicates=1, **self.CFG))
        assert len(report.records) == 1
        rec = report.records[0]
        summary = report.summaries["bayes-clr"]
        assert summary.count == 1
        assert summary.median_abs_error == rec.abs_error
        assert summary.rejection_rate == float(rec.rejected)

    def test_deterministic_and_thread_invariant(self):
        base = ExperimentConfig(replicates=4, **self.CFG)
        a = run_experiment(base, threads=1)
        b = run_experiment(base, threads=3)
        assert a.records == b.records
        assert a.summaries == b.summaries

    def test_threads_is_a_call_argument_not_a_setting(self):
        with pytest.raises(TypeError, match="threads"):
            ExperimentConfig(threads=2, **self.CFG)

    def test_compare_l2_runs_both_methods(self):
        report = run_experiment(
            ExperimentConfig(replicates=2, compare_l2=True, **self.CFG))
        methods = {r.method for r in report.records}
        assert methods == {"bayes-clr", "l2-raw"}

    def test_abs_error_recount(self):
        report = run_experiment(ExperimentConfig(replicates=3, **self.CFG))
        for rec in report.records:
            assert rec.abs_error == abs(rec.k_hat - report.config.k_star)
        assert report.summaries == summarize_records(report.records)

    def test_break_at_n_runs_without_a_change(self):
        report = run_experiment(ExperimentConfig(
            generator="model1", n=30, k_star=30, replicates=3, mc_samples=200,
            grid_nodes=128, seed=4))
        assert [rec.method for rec in report.records] == ["bayes-clr"] * 3
        for rec in report.records:
            assert 1 <= rec.k_hat < 30
            assert rec.abs_error == 30 - rec.k_hat

    def test_cleaning_records_removed_indices(self):
        report = run_experiment(ExperimentConfig(
            generator="model3", n=40, k_star=20, replicates=1, mc_samples=200,
            grid_nodes=128, seed=8, contamination_count=8, clean=True))
        rec = report.records[0]
        assert rec.contaminated_indices != ()
        assert set(rec.cleaned_indices) & set(rec.contaminated_indices)

    @pytest.mark.parametrize("compare_l2", [False, True])
    def test_programming_errors_propagate(self, monkeypatch, compare_l2):
        def broken(*args, **kwargs):
            raise TypeError("detector bug")

        monkeypatch.setattr(simlab, "_detect_statistic", broken)
        with pytest.raises(TypeError, match="detector bug"):
            run_experiment(ExperimentConfig(replicates=1, compare_l2=compare_l2, **self.CFG))

    def test_replicates_never_build_the_mean_increment(self, monkeypatch):
        def overflow(seq, k_hat):
            raise NumericError("clr_inv overflow")

        monkeypatch.setattr(engine, "mean_increment", overflow)
        config = ExperimentConfig(replicates=3, compare_l2=True, **self.CFG)
        report = run_experiment(config)
        assert [rec.error for rec in report.records] == [None] * 6
        assert any(rec.rejected for rec in report.records_for("bayes-clr"))
        with pytest.raises(NumericError, match="overflow"):  # detect still builds it
            detect(gen_model1(60, 30, 3), mc_samples=50, seed=1)

    def test_invalid_generator_rejected(self):
        with pytest.raises(StructuralError):
            ExperimentConfig(generator="nope")

    @pytest.mark.parametrize("bad", [{"alpha": 1.5}, {"theta": 2.0}, {"mc_samples": 0},
                                     {"n": 3, "k_star": 1}, {"k_star": 101}])
    def test_invalid_settings_rejected_before_any_replicate(self, bad):
        with pytest.raises(StructuralError):
            ExperimentConfig(generator="model1", **bad)


class TestPairedArms:
    """``compare_l2`` replicates: one Monte Carlo draw serves both arms."""

    # A weak early break: both arms' p-values are clear of 0, and the L2 arm
    # retains more eigenvalues than the Bayes arm in every replicate.
    CFG = dict(generator="model3", n=40, k_star=6, mc_samples=200, grid_nodes=128, seed=8,
               contamination_count=8, clean=True, compare_l2=True)

    @staticmethod
    def standalone(config, r):
        """Each arm of replicate r run alone: (Bayes result, raw-L2 result)."""
        mc_seed = derive_seed(derive_seed(config.seed, r), 1)
        seq, _ = simlab.replicate_sequence(config.generator, config.n, config.k_star,
                                           config.contamination_count,
                                           derive_seed(config.seed, r), Grid(config.grid_nodes))
        kwargs = dict(mc_samples=config.mc_samples, seed=mc_seed)
        _, bayes = clean_and_detect(seq, **kwargs)
        return bayes, detect(seq, method="l2-raw", **kwargs)

    def test_thread_invariant_and_larger_arm_draws_as_standalone(self):
        base = ExperimentConfig(replicates=3, **self.CFG)
        a = run_experiment(base, threads=1)
        b = run_experiment(base, threads=3)
        assert a.records == b.records and a.summaries == b.summaries
        differing_L = 0
        for r in range(base.replicates):
            bayes, l2 = self.standalone(base, r)
            got = {rec.method: rec for rec in a.records if rec.replicate == r}
            assert (got["bayes-clr"].k_hat, got["l2-raw"].k_hat) == (bayes.k_hat, l2.k_hat)
            assert (got["bayes-clr"].L, got["l2-raw"].L) == (bayes.L, l2.L)
            larger, smaller = (bayes, l2) if bayes.L >= l2.L else (l2, bayes)
            differing_L += larger.L > smaller.L
            assert got[larger.method].p_value == larger.p_value
            padded = smaller.eigenvalues + (0.0,) * (larger.L - smaller.L)
            samples = simulate_limit_samples(padded, base.mc_samples, seed=larger.seed)
            assert got[smaller.method].p_value == p_value(smaller.statistic, samples)
        assert differing_L == base.replicates  # the case the shared draw changes

    @pytest.mark.parametrize("contamination_count", [0, 8])
    @pytest.mark.parametrize("clean", [False, True])
    def test_single_arm_records_equal_a_standalone_detection(self, contamination_count,
                                                              clean):
        config = ExperimentConfig(replicates=3, **{
            **self.CFG, "compare_l2": False, "clean": clean,
            "contamination_count": contamination_count})
        report = run_experiment(config)
        assert len(report.records) == config.replicates
        for r, rec in enumerate(report.records):
            mc_seed = derive_seed(derive_seed(config.seed, r), 1)
            seq, truth = simlab.replicate_sequence(
                config.generator, config.n, config.k_star, contamination_count,
                derive_seed(config.seed, r), Grid(config.grid_nodes))
            kwargs = dict(mc_samples=config.mc_samples, seed=mc_seed)
            cleaned = ()
            if clean:
                cleaning, want = clean_and_detect(seq, **kwargs)
                cleaned = cleaning.removed_indices
            else:
                want = detect(seq, **kwargs)
            assert (rec.replicate, rec.method, rec.error) == (r, "bayes-clr", None)
            assert (rec.k_hat, rec.p_value, rec.rejected, rec.cleaned_indices, rec.L) == (
                want.k_hat, want.p_value, want.reject_null, cleaned, want.L)
            assert rec.contaminated_indices == truth

    @pytest.mark.parametrize("failing", ["bayes-clr", "l2-raw"])
    def test_failing_arm_recorded_and_other_arm_draws_alone(self, monkeypatch, failing):
        stage = simlab._detect_statistic

        def fail_one(seq, theta, method):
            if method == failing:
                raise DegenerateInputError("forced")
            return stage(seq, theta, method)

        monkeypatch.setattr(simlab, "_detect_statistic", fail_one)
        config = ExperimentConfig(replicates=1, **self.CFG)
        error, ok = run_experiment(config).records
        if failing == "l2-raw":
            ok, error = error, ok
        assert error.method == "error"
        assert error.error == f"{failing}: DegenerateInputError: forced"
        bayes, l2 = self.standalone(config, 0)
        want = l2 if failing == "bayes-clr" else bayes
        assert (ok.method, ok.k_hat, ok.p_value) == (want.method, want.k_hat, want.p_value)

    @pytest.mark.parametrize("failing", ["bayes-clr", "l2-raw"])
    def test_arm_failing_after_the_draw_leaves_the_shared_draw(self, monkeypatch, failing):
        config = ExperimentConfig(replicates=1, **self.CFG)
        shared = {rec.method: rec for rec in run_experiment(config).records}
        stage = simlab._detect_result

        def fail_one(stat, *args):
            if stat.method == failing:
                raise DegenerateInputError("forced")
            return stage(stat, *args)

        monkeypatch.setattr(simlab, "_detect_result", fail_one)
        report = run_experiment(config)
        error, ok = report.records
        if failing == "l2-raw":
            ok, error = error, ok
        assert error.method == "error"
        assert error.error == f"{failing}: DegenerateInputError: forced"
        assert (error.k_hat, error.abs_error, error.rejected, error.L) == (0, 0, False, 0)
        assert error.cleaned_indices == ()
        rows = json.loads(dump_json(experiment_report_to_dict(report)))["replicates"]
        row = next(row for row in rows if row["method"] == "error")
        assert (row["p_value"], row["k_hat"], row["L"]) == (None, 0, 0)
        # The other arm's p-value comes from the draw that both arms' spectra shaped.
        assert ok == shared[ok.method]
        if failing == "l2-raw":  # the larger arm failed, so the Bayes draw was padded
            bayes, l2 = self.standalone(config, 0)
            padded = bayes.eigenvalues + (0.0,) * (l2.L - bayes.L)
            kwargs = dict(mc_samples=config.mc_samples, seed=bayes.seed)
            shared_draw = simulate_limit_samples(padded, **kwargs)
            assert ok.p_value == p_value(bayes.statistic, shared_draw)
            assert not np.array_equal(shared_draw,
                                      simulate_limit_samples(bayes.eigenvalues, **kwargs))
