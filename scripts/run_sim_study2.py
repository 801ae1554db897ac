#!/usr/bin/env python3
"""Outlier-robustness study over the three Beta break models.

For each model, runs three arms: clean data, 20%-contaminated data, and
contaminated data with distributional outlier cleaning.  Prints a summary
table and writes one report per arm.
"""

import argparse
from pathlib import Path

from bayes_cpd import ExperimentConfig, run_experiment
from bayes_cpd.io import write_experiment_outputs

ARMS = (
    ("clean", dict(contamination_count=0, clean=False)),
    ("contaminated", dict(contamination_count=20, clean=False)),
    ("contaminated+cleaned", dict(contamination_count=20, clean=True)),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--out-dir", default="results/sim_study2")
    args = parser.parse_args()

    out_root = Path(args.out_dir)
    print(f"{'model':8s} {'arm':22s} {'rejection':>9s} {'median |err|':>13s}")
    for model in ("model1", "model2", "model3"):
        for arm_name, overrides in ARMS:
            config = ExperimentConfig(
                generator=model, replicates=args.replicates,
                seed=args.seed, threads=args.threads, **overrides,
            )
            report = run_experiment(config)
            s = report.summaries["bayes-clr"]
            print(f"{model:8s} {arm_name:22s} {s.rejection_rate:9.3f} "
                  f"{s.median_abs_error:13.1f}")
            write_experiment_outputs(out_root / model / arm_name.replace("+", "_"), report)
    print(f"wrote per-arm reports under {out_root}/")


if __name__ == "__main__":
    main()
