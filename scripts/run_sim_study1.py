#!/usr/bin/env python3
"""Repeated-detection comparison on the sorted-parameter Beta model.

Runs the Bayes-clr detector against the raw-L2 competitor on freshly
generated sequences and writes the report JSON plus replicate/boxplot
CSVs.  Desk scale is 50 replicates; pass --replicates 500 for the full
campaign.
"""

import argparse
from pathlib import Path

from bayes_cpd import ExperimentConfig, run_experiment
from bayes_cpd.io import write_experiment_outputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=50)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--kstar", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--out-dir", default="results/sim_study1")
    args = parser.parse_args()

    config = ExperimentConfig(
        generator="sim1", n=args.n, k_star=args.kstar,
        replicates=args.replicates, compare_l2=True,
        seed=args.seed, threads=args.threads,
    )
    report = run_experiment(config)

    out = Path(args.out_dir)
    write_experiment_outputs(out, report)

    for method, s in sorted(report.summaries.items()):
        print(f"{method:10s} median |err| = {s.median_abs_error:5.1f}   "
              f"IQR = [{s.q1_abs_error}, {s.q3_abs_error}]   "
              f"rejection rate = {s.rejection_rate:.3f}")
    print(f"wrote {out}/report.json, replicates.csv, boxplot.csv")


if __name__ == "__main__":
    main()
