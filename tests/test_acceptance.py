"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  The replicated studies
use 50 replicates (desk scale) with pinned seeds; every tolerance below is
fixed, nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from bayes_cpd import (
    DistributionalSequence,
    ExperimentConfig,
    IngestConfig,
    RawSeries,
    b_add,
    b_dist,
    b_inner,
    b_smul,
    beta_density,
    build_sequence,
    clean_and_detect,
    clr,
    cusum_profile,
    detect,
    first_moment,
    gen_model2,
    run_experiment,
    simulate_limit_samples,
    zero_avoid,
)
from bayes_cpd.cli import main as cli_main
from bayes_cpd.seeds import derive_seed

from helpers import random_density

GRID_NODES = 512
ALPHA = 0.05
MC = 2000
THETA = 0.95
REPS = 50
THREADS = 2


def announce(num, passed, detail):
    print(f"\n[ACCEPTANCE] criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid():
    from bayes_cpd import Grid
    return Grid(GRID_NODES)


@pytest.fixture(scope="module")
def sim1_report():
    cfg = ExperimentConfig(generator="sim1", n=100, k_star=50, replicates=REPS,
                           alpha=ALPHA, mc_samples=MC, theta=THETA,
                           compare_l2=True, seed=20260810)
    t0 = time.time()
    report = run_experiment(cfg, threads=THREADS)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def model_reports():
    out = {}
    for gen in ("model1", "model2"):
        cfg = ExperimentConfig(generator=gen, n=100, k_star=50, replicates=REPS,
                               alpha=ALPHA, mc_samples=MC, theta=THETA,
                               seed=99)
        out[gen] = run_experiment(cfg, threads=THREADS)
    return out


def test_criterion_1_sim_study_comparison(sim1_report):
    report, elapsed = sim1_report
    bayes = report.summaries["bayes-clr"]
    l2 = report.summaries["l2-raw"]
    ok = (bayes.median_abs_error <= 1.0
          and bayes.median_abs_error < l2.median_abs_error
          and bayes.rejection_rate == 1.0
          and elapsed < 600.0)
    announce(1, ok,
             f"bayes median |err|={bayes.median_abs_error}, "
             f"l2 median |err|={l2.median_abs_error}, "
             f"bayes rejection={bayes.rejection_rate:.2f} "
             f"({REPS} replicates, alpha={ALPHA}, M={MC}, theta={THETA}, "
             f"{elapsed:.0f}s)")


def test_criterion_2_strong_change_models(model_reports):
    details = []
    ok = True
    for gen in ("model1", "model2"):
        report = model_reports[gen]
        summary = report.summaries["bayes-clr"]
        errs = np.array([r.abs_error for r in report.records_for("bayes-clr")])
        within2 = float(np.mean(errs <= 2))
        ok &= summary.rejection_rate >= 0.98 and within2 >= 0.95
        details.append(f"{gen}: rejection={summary.rejection_rate:.2f}, "
                       f"P(|err|<=2)={within2:.2f}")
    announce(2, ok, "; ".join(details))


def test_criterion_3_model2_moment_alignment(model_reports, grid):
    worst = 0.0
    for r in range(5):
        data_seed = derive_seed(derive_seed(99, r), 0)
        seq = gen_model2(100, 50, data_seed, grid)
        moments = np.array([first_moment(f) for f in seq.densities])
        worst = max(worst, float(np.abs(moments - 0.45).max()))
    rejection = model_reports["model2"].summaries["bayes-clr"].rejection_rate
    ok = worst <= 0.01 and rejection >= 0.98
    announce(3, ok, f"max |moment - 0.45| = {worst:.4f} with "
                    f"model2 rejection = {rejection:.2f}")


def test_criterion_4_contamination_and_cleaning():
    base = dict(generator="model3", n=100, k_star=50, replicates=REPS,
                contamination_count=20, alpha=ALPHA, mc_samples=MC, theta=THETA,
                seed=7)
    raw = run_experiment(ExperimentConfig(clean=False, **base), threads=THREADS)
    cleaned = run_experiment(ExperimentConfig(clean=True, **base), threads=THREADS)
    raw_rate = raw.summaries["bayes-clr"].rejection_rate
    clean_summary = cleaned.summaries["bayes-clr"]
    ok = (raw_rate < clean_summary.rejection_rate
          and clean_summary.rejection_rate >= 0.95
          and clean_summary.median_abs_error <= 3.0)
    announce(4, ok,
             f"rejection without cleaning={raw_rate:.2f}, "
             f"with cleaning={clean_summary.rejection_rate:.2f}, "
             f"cleaned median |err|={clean_summary.median_abs_error}")


def test_criterion_5_isometry_and_linearity(grid):
    rng = np.random.default_rng(42)
    worst_add = worst_hom = worst_iso = 0.0
    for _ in range(1000):
        f, g = random_density(grid, rng), random_density(grid, rng)
        c = rng.uniform(-3.0, 3.0)
        worst_add = max(worst_add, float(np.abs(
            clr(b_add(f, g)).values - clr(f).values - clr(g).values).max()))
        worst_hom = max(worst_hom, float(np.abs(
            clr(b_smul(c, f)).values - c * clr(f).values).max()))
        diff = clr(f).values - clr(g).values
        d_clr = float(np.sqrt(diff @ (grid.weights * diff)))
        worst_iso = max(worst_iso, abs(b_dist(f, g) - d_clr) / d_clr)
    ok = worst_add < 1e-10 and worst_hom < 1e-10 and worst_iso < 1e-8
    announce(5, ok,
             f"1000 pairs: additivity sup={worst_add:.2e}, "
             f"homogeneity sup={worst_hom:.2e}, isometry rel={worst_iso:.2e}")


def test_criterion_6_bayes_chain_equivalence(grid):
    rng = np.random.default_rng(4242)
    worst_rel, worst_abs_at_n = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        densities = [random_density(grid, rng) for _ in range(n)]
        profile = cusum_profile(DistributionalSequence.from_densities(densities))
        total = densities[0]
        for f in densities[1:]:
            total = b_add(total, f)
        partial = None
        for k in range(1, n + 1):
            partial = densities[0] if partial is None else b_add(partial, densities[k - 1])
            chain = b_smul(1.0 / np.sqrt(n), b_add(partial, b_smul(-k / n, total)))
            norm_bayes = float(np.sqrt(max(b_inner(chain, chain), 0.0)))
            norm_clr = float(np.sqrt(profile.norm_sq_at(k)))
            if k == n:  # both norms are exactly zero in real arithmetic
                worst_abs_at_n = max(worst_abs_at_n, abs(norm_bayes - norm_clr))
            else:
                worst_rel = max(worst_rel,
                                abs(norm_bayes - norm_clr) / max(norm_bayes, norm_clr))
    ok = worst_rel < 1e-8 and worst_abs_at_n < 1e-12
    announce(6, ok, f"100 sequences: worst rel err (k<n)={worst_rel:.2e}, "
                    f"worst abs err at k=n={worst_abs_at_n:.2e}")


def test_criterion_7_limit_distribution_calibration():
    def kolmogorov_cdf(x):
        k = np.arange(1, 200)
        return 1.0 - 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))

    target = brentq(lambda x: kolmogorov_cdf(x) - 0.95, 0.5, 3.0)
    t0 = time.time()
    samples = simulate_limit_samples([1.0], 100_000, bridge_nodes=8001, seed=7,
                                     threads=0)
    elapsed = time.time() - t0
    empirical = float(np.percentile(np.sqrt(samples), 95))
    rel = abs(empirical - target) / target
    ok = rel < 0.01 and elapsed < 60.0
    announce(7, ok, f"95th pct of sqrt(T) = {empirical:.4f} vs Kolmogorov "
                    f"{target:.4f} (rel err {rel*100:.2f}%, {elapsed:.0f}s)")


def test_criterion_8_null_calibration(grid):
    rejections = 0
    reps = 200
    for r in range(reps):
        rng = np.random.default_rng(derive_seed(777, r))
        densities = tuple(
            zero_avoid(beta_density(grid, rng.uniform(10, 15), rng.uniform(10, 15)))
            for _ in range(100)
        )
        seq = DistributionalSequence.from_densities(densities)
        result = detect(seq, alpha=ALPHA, mc_samples=MC, theta=THETA,
                        seed=derive_seed(derive_seed(777, r), 1), threads=THREADS)
        rejections += result.reject_null
    rate = rejections / reps
    ok = 0.01 <= rate <= 0.10
    announce(8, ok, f"empirical size = {rate:.3f} over {reps} null replicates "
                    f"(band [0.01, 0.10])")


def _switch_series(seed, n_days=100, switch_day=50, per_day=240, lo=2.0, hi=4.0):
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


def test_criterion_9_end_to_end_pipeline():
    hits = 0
    for r in range(REPS):
        s = derive_seed(2468, r)
        series = _switch_series(derive_seed(s, 0))
        seq, _ = build_sequence(series, IngestConfig(), threads=THREADS)
        _, result = clean_and_detect(seq, alpha=ALPHA, mc_samples=MC, theta=THETA,
                                     seed=derive_seed(s, 1), threads=THREADS)
        hits += (result.reject_null and abs(result.k_hat - 50) <= 3)
    ok = hits >= 0.90 * REPS
    announce(9, ok, f"ingest->clean->detect recovered day-50 switch within +/-3 "
                    f"in {hits}/{REPS} replicates")


def test_criterion_10_byte_determinism(tmp_path):
    sim = tmp_path / "sim.csv"
    checks = []
    # simulate: identical bytes across reruns
    for out in ("a.csv", "b.csv"):
        cli_main(["simulate", "--generator", "model3", "--n", "40", "--kstar", "20",
                  "--seed", "13", "--contaminate", "8", "--out", str(tmp_path / out)])
    checks.append((tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes())
    checks.append((tmp_path / "a.csv.meta.json").read_bytes()
                  == (tmp_path / "b.csv.meta.json").read_bytes())
    # detect: identical bytes across thread counts
    cli_main(["simulate", "--generator", "model1", "--n", "60", "--kstar", "30",
              "--seed", "21", "--out", str(sim)])
    payloads = []
    for threads in ("1", "4"):
        res = tmp_path / f"res{threads}.json"
        cli_main(["detect", str(sim), "--mc-samples", "500", "--seed", "2",
                  "--threads", threads, "--out", str(res)])
        payloads.append(res.read_bytes())
    checks.append(payloads[0] == payloads[1])
    # experiment: identical bytes across thread counts
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("generator = model2\nreplicates = 3\nmc_samples = 200\n"
                   "n = 40\nk_star = 20\ngrid_nodes = 128\nseed = 6\n")
    reports = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"out{threads}"
        cli_main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir),
                  "--threads", threads])
        reports.append((out_dir / "report.json").read_bytes()
                       + (out_dir / "replicates.csv").read_bytes())
    checks.append(reports[0] == reports[1])
    ok = all(checks)
    announce(10, ok, f"simulate/detect/experiment byte-identical: {checks}")
