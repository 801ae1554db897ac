#!/usr/bin/env python3
"""Fixed-seed statistical record of the detector, and its comparator.

Writes one JSON file of ten arms:

- null size at n = 40, 100 and 300: model1 with k* = n, a sequence with
  no change whose densities are i.i.d. Beta(U(10,15), U(10,15)) as in
  acceptance criterion 8, Bayes arm only;
- sim1, Bayes against raw L2 (n = 100);
- model1-3 with 20 outliers, cleaned, against raw L2 (n = 100);
- a weak early break: model3, n = 40, k* = 6, 8 outliers, cleaned;
- the limit law: the share of L = 1 limit samples at or above the squared
  Kolmogorov 0.95 point, and of L = 3 samples at or above a committed
  fine-grid 0.95 point; the target of both is 0.05.

Each arm is one line of the ordered table ``ARMS``: its replicates (or
limit samples) at full and at smoke size, and its spec, either the
``run_experiment`` settings or the limit-law eigenvalues, 0.95 point and
the samples behind that point.  An arm's seed is derived from its position
in the table, so a new arm goes last and the arms before it keep their
draws.  Every arm but the two limit-law arms is a ``run_experiment`` call.
Per arm and method it records the rejection rate with its binomial standard
error, the quartiles of |k_hat - k*| (null on a no-change arm), the
histogram of the retained eigenvalue count L, and the normals the Monte
Carlo drew.
The file depends only on the seed and the code, so a rerun writes the same
bytes at any thread count.

    python scripts/study.py --out STATS.json [--smoke] [--seed S] [--threads T]
    python scripts/study.py --compare OLD.json NEW.json

``--compare`` exits 1 when a data arm's rejection rate moves by more than
RATE_Z pooled standard errors or one of its quartiles by more than
QUARTILE_STEP indices, when a new limit-law share lies more than LIMIT_Z
standard errors from its target, or when NEW lacks an arm.  Old
limit-law shares are shown but not judged; every limit-law arm in NEW is
judged, and a data arm that only NEW has is shown as new and not judged.
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

from bayes_cpd import ExperimentConfig, run_experiment, simulate_limit_samples
from bayes_cpd.engine import DEFAULT_BRIDGE_NODES, DEFAULT_MC_SAMPLES, METHOD_BAYES, METHOD_L2
from bayes_cpd.seeds import derive_seed

#: Pooled binomial standard errors a data arm's rejection rate may move.
RATE_Z = 3.0
#: Indices a quartile of |k_hat - k*| may move.
QUARTILE_STEP = 1.0
#: Target share of the limit-law arms and the standard errors they may miss by.
LIMIT_TARGET = 0.05
LIMIT_Z = 3.0
#: The 0.95 quantile of sup_x sum_l lambda_l B_l(x)^2 for lambda = (0.6, 0.3, 0.1),
#: which has no closed form:
#:     np.quantile(simulate_limit_samples([0.6, 0.3, 0.1], 400_000, bridge_nodes=2001,
#:                                        seed=2503, threads=2), 0.95)
#: Its standard error is 0.0020, from the 95% order-statistic interval
#: [1.2346, 1.2423]; as a share it is sqrt(0.05 * 0.95 / 400_000) = 0.00034.
LIMIT_L3_POINT = 1.2384930490257646
LIMIT_L3_POINT_SAMPLES = 400_000


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


#: name -> (full size, smoke size, spec), in seed order.  A limit-law spec is
#: (eigenvalues, 0.95 point, samples behind the point or None for a closed form).
ARMS = {
    "null_n100": (4000, 40, dict(generator="model1", n=100, k_star=100, compare_l2=False)),
    "null_n300": (4000, 20, dict(generator="model1", n=300, k_star=300, compare_l2=False)),
    "sim1": (100, 10, dict(generator="sim1", n=100, k_star=50)),
    "model1_clean": (100, 10, dict(generator="model1", n=100, k_star=50,
                                   contamination_count=20, clean=True)),
    "model2_clean": (100, 10, dict(generator="model2", n=100, k_star=50,
                                   contamination_count=20, clean=True)),
    "model3_clean": (100, 10, dict(generator="model3", n=100, k_star=50,
                                   contamination_count=20, clean=True)),
    "weak_break": (200, 20, dict(generator="model3", n=40, k_star=6, contamination_count=8,
                                 clean=True)),
    "limit_law": (40_000, 4_000, ((1.0,), kolmogorov_quantile(0.95) ** 2, None)),
    "null_n40": (4000, 40, dict(generator="model1", n=40, k_star=40, compare_l2=False)),
    "limit_law_l3": (40_000, 4_000,
                     ((0.6, 0.3, 0.1), LIMIT_L3_POINT, LIMIT_L3_POINT_SAMPLES)),
}
LIMIT_ARMS = {name: spec for name, (_, _, spec) in ARMS.items() if isinstance(spec, tuple)}


def experiment_arm(overrides: dict, reps: int, seed: int, threads: int) -> dict:
    """Each arm of one experiment, Bayes against raw L2 unless ``compare_l2`` is off."""
    config = ExperimentConfig(replicates=reps, seed=seed, **{"compare_l2": True, **overrides})
    report = run_experiment(config, threads)
    methods, shared = {}, [0] * reps
    for method in (METHOD_BAYES, METHOD_L2) if config.compare_l2 else (METHOD_BAYES,):
        rows = report.records_for(method)
        for rec in rows:
            shared[rec.replicate] = max(shared[rec.replicate], rec.L)
        count, errored = len(rows), reps - len(rows)
        rate = float(np.mean([rec.rejected for rec in rows])) if count else None
        quartiles = None
        if rows and config.k_star != config.n:
            quartiles = [float(q) for q in
                         np.percentile([rec.abs_error for rec in rows], [25, 50, 75])]
        ells = Counter([rec.L for rec in rows] + ["error"] * errored)
        methods[method] = {
            "count": count,
            "errored": errored,
            "rejections": sum(rec.rejected for rec in rows),
            "rate": rate,
            "se": math.sqrt(rate * (1.0 - rate) / count) if count else None,
            "abs_error_quartiles": quartiles,
            "L_histogram": {str(k): v for k, v in sorted(ells.items(), key=str)},
        }
    normals = sum(config.mc_samples * ell * (config.bridge_nodes - 1) for ell in shared)
    return {"replicates": reps, "normals_drawn": normals, "methods": methods}


def limit_arm(eigen: tuple, point: float, point_samples: int | None, samples: int,
              seed: int, threads: int) -> dict:
    """Share of limit samples for ``eigen`` at or above its 0.95 ``point``.

    A point estimated from ``point_samples`` draws adds its own binomial
    error to the standard error of the share.
    """
    draws = simulate_limit_samples(eigen, samples, seed=seed, threads=threads)
    share = float(np.mean(draws >= point))
    inverse_count = 1.0 / samples + (1.0 / point_samples if point_samples else 0.0)
    return {"eigenvalues": list(eigen), "samples": samples, "point": point, "share": share,
            "target": LIMIT_TARGET,
            "se": math.sqrt(LIMIT_TARGET * (1.0 - LIMIT_TARGET) * inverse_count),
            "normals_drawn": samples * len(eigen) * (DEFAULT_BRIDGE_NODES - 1)}


def run_study(size: str, seed: int, threads: int) -> dict:
    arms = {}
    for index, (name, (full, smoke, spec)) in enumerate(ARMS.items()):
        count, arm_seed = (smoke if size == "smoke" else full), derive_seed(seed, index)
        start = time.perf_counter()
        if name in LIMIT_ARMS:
            arms[name] = limit_arm(*spec, count, arm_seed, threads)
        else:
            arms[name] = experiment_arm(spec, count, arm_seed, threads)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return {"size": size, "seed": seed, "bridge_nodes": DEFAULT_BRIDGE_NODES,
            "mc_samples": DEFAULT_MC_SAMPLES, "grid_nodes": ExperimentConfig.grid_nodes,
            "arms": arms}


def _fmt(rate, se) -> str:
    return "-" if rate is None else f"{rate:.3f} ({se:.3f})"


def compare(old: dict, new: dict) -> list[str]:
    """Print the old-to-new table and return the comparator's failures."""
    problems = []
    print(f"{'arm':14s} {'method':10s} {'old rate (SE)':>15s} {'new rate (SE)':>15s} "
          f"{'z':>6s}  |k_hat - k*| quartiles old -> new")
    for name in ARMS:
        if name not in new["arms"]:
            problems.append(f"{name}: arm missing")
            continue
        b, a = new["arms"][name], old["arms"].get(name)
        if name in LIMIT_ARMS:
            z = (b["share"] - b["target"]) / b["se"]
            was = "new" if a is None else f"{a['share']:.4f}"
            print(f"{name:14s} {f'L = {len(LIMIT_ARMS[name][0])}':10s} {was:>15s} "
                  f"{b['share']:15.4f} {z:6.2f}  target {b['target']} +/- {LIMIT_Z} x "
                  f"{b['se']:.4f}")
            if abs(z) > LIMIT_Z:
                problems.append(f"{name}: share {b['share']:.4f} is {z:.2f} SE from "
                                f"{b['target']}")
            continue
        if a is None:
            for method, mb in b["methods"].items():
                print(f"{name:14s} {method:10s} {'new':>15s} {_fmt(mb['rate'], mb['se']):>15s}")
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
