#!/usr/bin/env python3
"""Fixed-seed statistical record of the detector, and its comparator.

Writes one JSON file of seven arms:

- null size on the criterion-8 generator (i.i.d. Beta(U(10,15), U(10,15))
  densities) at n = 100 and n = 300;
- sim1, Bayes against raw L2 (n = 100);
- model1-3 with 20 outliers, cleaned, against raw L2 (n = 100);
- a weak early break: model3, n = 40, k* = 6, 8 outliers, cleaned;
- the limit law: the share of L = 1 limit samples at or above the squared
  Kolmogorov 0.95 point, whose target is 0.05.

Per arm and method it records the rejection rate with its binomial
standard error, the quartiles of |k_hat - k*|, the histogram of the
retained eigenvalue count L, and the normals the Monte Carlo drew.  The
file depends only on the seed and the code, so a rerun writes the same
bytes at any thread count.

    python scripts/study.py --out STATS.json [--smoke] [--seed S] [--threads T]
    python scripts/study.py --compare OLD.json NEW.json

``--compare`` exits 1 when a data arm's rejection rate moves by more than
RATE_Z pooled standard errors or one of its quartiles by more than
QUARTILE_STEP indices, or when the new limit-law share lies more than
LIMIT_Z standard errors from its target; the old limit-law share is shown
but not judged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from bayes_cpd import (
    DistributionalSequence,
    ExperimentConfig,
    Grid,
    beta_density,
    clean_and_detect,
    detect,
    run_experiment,
    simulate_limit_samples,
    zero_avoid,
)
from bayes_cpd.engine import DEFAULT_BRIDGE_NODES, DEFAULT_MC_SAMPLES, METHOD_BAYES, METHOD_L2
from bayes_cpd.errors import BayesCpdError
from bayes_cpd.seeds import derive_seed
from bayes_cpd.simlab import replicate_sequence

#: Pooled binomial standard errors a data arm's rejection rate may move.
RATE_Z = 3.0
#: Indices a quartile of |k_hat - k*| may move.
QUARTILE_STEP = 1.0
#: Target share of the limit-law arm and the standard errors it may miss by.
LIMIT_TARGET = 0.05
LIMIT_Z = 3.0

NULL_ARMS = (("null_n100", 100), ("null_n300", 300))
EXPERIMENT_ARMS = (
    ("sim1", dict(generator="sim1", n=100, k_star=50)),
    ("model1_clean", dict(generator="model1", n=100, k_star=50, contamination_count=20,
                          clean=True)),
    ("model2_clean", dict(generator="model2", n=100, k_star=50, contamination_count=20,
                          clean=True)),
    ("model3_clean", dict(generator="model3", n=100, k_star=50, contamination_count=20,
                          clean=True)),
    ("weak_break", dict(generator="model3", n=40, k_star=6, contamination_count=8,
                        clean=True)),
)
#: Replicates (or limit samples) per arm at full and smoke size.
SIZES = {
    "full": {"null_n100": 400, "null_n300": 200, "sim1": 100, "model1_clean": 100,
             "model2_clean": 100, "model3_clean": 100, "weak_break": 200,
             "limit_law": 40_000},
    "smoke": {"null_n100": 40, "null_n300": 20, "sim1": 10, "model1_clean": 10,
              "model2_clean": 10, "model3_clean": 10, "weak_break": 20,
              "limit_law": 4_000},
}
ARM_NAMES = tuple(SIZES["full"])
GRID_NODES = 512


def kolmogorov_quantile(p: float) -> float:
    """The p-quantile of sup |B| for a Brownian bridge B, by bisection."""
    k = np.arange(1, 200)

    def cdf(x: float) -> float:
        return 1.0 - 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))

    lo, hi = 0.3, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) < p else (lo, mid)
    return 0.5 * (lo + hi)


def method_entry(rejected: list[bool], abs_errors: list[int] | None, ells: list,
                 errored: int) -> dict:
    count = len(rejected)
    rate = float(np.mean(rejected)) if count else None
    quartiles = None
    if abs_errors:
        quartiles = [float(q) for q in np.percentile(abs_errors, [25, 50, 75])]
    return {
        "count": count,
        "errored": errored,
        "rejections": int(sum(rejected)),
        "rate": rate,
        "se": math.sqrt(rate * (1.0 - rate) / count) if count else None,
        "abs_error_quartiles": quartiles,
        "L_histogram": {str(k): v for k, v in sorted(Counter(ells).items(), key=str)},
    }


def null_arm(n: int, reps: int, seed: int, threads: int) -> dict:
    """Rejections on i.i.d. densities with no break."""
    grid = Grid(GRID_NODES)
    rejected, ells, normals = [], [], 0
    for r in range(reps):
        rng = np.random.default_rng(derive_seed(seed, r))
        densities = [zero_avoid(beta_density(grid, rng.uniform(10, 15), rng.uniform(10, 15)))
                     for _ in range(n)]
        result = detect(DistributionalSequence.from_densities(densities),
                        seed=derive_seed(derive_seed(seed, r), 1), threads=threads)
        rejected.append(result.reject_null)
        ells.append(result.L)
        normals += DEFAULT_MC_SAMPLES * result.L * (DEFAULT_BRIDGE_NODES - 1)
    return {"replicates": reps, "normals_drawn": normals,
            "methods": {METHOD_BAYES: method_entry(rejected, None, ells, 0)}}


def retained_count(config: ExperimentConfig, r: int, grid: Grid,
                   method: str) -> tuple[int | str, int | None]:
    """L and k_hat of one arm of replicate r, from a one-sample rerun of its
    detection; ("error", None) where the arm raises.

    k_hat does not depend on the Monte Carlo, so the caller checks it
    against the experiment's record.
    """
    seq, _ = replicate_sequence(config.generator, config.n, config.k_star,
                                config.contamination_count, derive_seed(config.seed, r), grid)
    kwargs = dict(mc_samples=1, theta=config.theta, centering=config.centering)
    try:
        if method == METHOD_BAYES and config.clean:
            result = clean_and_detect(seq, **kwargs)[1]
        else:
            result = detect(seq, method=method, **kwargs)
    except BayesCpdError:
        return "error", None
    return result.L, result.k_hat


def experiment_arm(overrides: dict, reps: int, seed: int, threads: int) -> dict:
    """Both arms of a paired Bayes-against-raw-L2 experiment."""
    config = ExperimentConfig(replicates=reps, seed=seed, threads=threads, compare_l2=True,
                              **overrides)
    report = run_experiment(config)
    grid = Grid(config.grid_nodes)
    methods, shared = {}, [0] * reps
    for method in (METHOD_BAYES, METHOD_L2):
        records = {rec.replicate: rec for rec in report.records_for(method)}
        errored = sum(1 for rec in report.records
                      if rec.error is not None and rec.error.startswith(f"{method}: "))
        ells = []
        for r in range(reps):
            ell, k_hat = retained_count(config, r, grid, method)
            if r in records and k_hat != records[r].k_hat:
                raise RuntimeError(f"replicate {r} {method}: k_hat {k_hat} does not "
                                   f"match the experiment's {records[r].k_hat}")
            ells.append(ell)
            if isinstance(ell, int):
                shared[r] = max(shared[r], ell)
        rows = [records[r] for r in sorted(records)]
        methods[method] = method_entry([rec.rejected for rec in rows],
                                       [rec.abs_error for rec in rows], ells, errored)
    normals = sum(config.mc_samples * ell * (config.bridge_nodes - 1) for ell in shared)
    return {"replicates": reps, "normals_drawn": normals, "methods": methods}


def limit_arm(samples: int, seed: int, threads: int) -> dict:
    point = kolmogorov_quantile(0.95) ** 2
    draws = simulate_limit_samples([1.0], samples, seed=seed, threads=threads)
    share = float(np.mean(draws >= point))
    return {"samples": samples, "point": point, "share": share, "target": LIMIT_TARGET,
            "se": math.sqrt(LIMIT_TARGET * (1.0 - LIMIT_TARGET) / samples),
            "normals_drawn": samples * (DEFAULT_BRIDGE_NODES - 1)}


def run_study(size: str, seed: int, threads: int) -> dict:
    sizes = SIZES[size]
    arms = {}
    for index, name in enumerate(ARM_NAMES):
        arm_seed = derive_seed(seed, index)
        start = time.perf_counter()
        if name == "limit_law":
            arms[name] = limit_arm(sizes[name], arm_seed, threads)
        elif name in dict(NULL_ARMS):
            arms[name] = null_arm(dict(NULL_ARMS)[name], sizes[name], arm_seed, threads)
        else:
            arms[name] = experiment_arm(dict(EXPERIMENT_ARMS)[name], sizes[name], arm_seed,
                                        threads)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return {"size": size, "seed": seed, "bridge_nodes": DEFAULT_BRIDGE_NODES,
            "mc_samples": DEFAULT_MC_SAMPLES, "grid_nodes": GRID_NODES, "arms": arms}


def _fmt(rate, se) -> str:
    return "-" if rate is None else f"{rate:.3f} ({se:.3f})"


def compare(old: dict, new: dict) -> list[str]:
    """Print the old-to-new table and return the comparator's failures."""
    problems = []
    print(f"{'arm':14s} {'method':10s} {'old rate (SE)':>15s} {'new rate (SE)':>15s} "
          f"{'z':>6s}  |k_hat - k*| quartiles old -> new")
    for name in ARM_NAMES:
        if name not in old["arms"] or name not in new["arms"]:
            problems.append(f"{name}: arm missing")
            continue
        a, b = old["arms"][name], new["arms"][name]
        if name == "limit_law":
            z = (b["share"] - b["target"]) / b["se"]
            print(f"{name:14s} {'L = 1':10s} {a['share']:15.4f} {b['share']:15.4f} {z:6.2f}  "
                  f"target {b['target']} +/- {LIMIT_Z} x {b['se']:.4f}")
            if abs(z) > LIMIT_Z:
                problems.append(f"{name}: share {b['share']:.4f} is {z:.2f} SE from "
                                f"{b['target']}")
            continue
        for method, mb in b["methods"].items():
            ma = a["methods"].get(method)
            if ma is None or ma["rate"] is None or mb["rate"] is None:
                problems.append(f"{name} {method}: no rate to compare")
                continue
            pooled = (ma["rejections"] + mb["rejections"]) / (ma["count"] + mb["count"])
            se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / ma["count"] + 1.0 / mb["count"]))
            move = mb["rate"] - ma["rate"]
            z = 0.0 if move == 0.0 else (math.inf if se == 0.0 else move / se)
            qa, qb = ma["abs_error_quartiles"], mb["abs_error_quartiles"]
            quartiles = "-" if qa is None else f"{qa} -> {qb}"
            print(f"{name:14s} {method:10s} {_fmt(ma['rate'], ma['se']):>15s} "
                  f"{_fmt(mb['rate'], mb['se']):>15s} {z:6.2f}  {quartiles}")
            if abs(z) > RATE_Z:
                problems.append(f"{name} {method}: rate {ma['rate']:.3f} -> {mb['rate']:.3f} "
                                f"moved {z:.2f} pooled SE")
            if (qa is None) != (qb is None) or (
                    qa is not None and max(abs(x - y) for x, y in zip(qa, qb)) > QUARTILE_STEP):
                problems.append(f"{name} {method}: quartiles {qa} -> {qb}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="STATS.json", help="JSON file to write")
    parser.add_argument("--smoke", action="store_true", help="about a tenth of each arm")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files instead of running the study")
    args = parser.parse_args()

    if args.compare:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        problems = compare(old, new)
        for problem in problems:
            print(f"FAIL {problem}")
        print("comparison failed" if problems else "comparison passed")
        return 1 if problems else 0

    stats = run_study("smoke" if args.smoke else "full", args.seed, args.threads)
    Path(args.out).write_text(json.dumps(stats, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
