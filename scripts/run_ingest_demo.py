#!/usr/bin/env python3
"""End-to-end demo: synthetic raw monitoring series -> densities -> detection.

Synthesizes 100 days of scalar samples whose generating distribution
switches families at a chosen day, writes the raw CSV, then drives the
CLI pipeline: ingest -> clean -> detect.  Prints the ingest step's wall
time per day (interpreter start included) and its peak RSS.  Exits
non-zero when ``ingest`` fails or ``detect`` exits with anything but a
decision (0 or 1).

A child's peak RSS counts this process's own peak at the time it starts
the child, so the raw CSV is synthesized and written one day at a time:
this process then holds one day of samples, less than ``ingest`` does.
"""

import argparse
import csv
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def synthesize(seed: int, n_days: int, switch_day: int, per_day: int):
    """Yield the timestamps and values of each day in turn."""
    rng = np.random.default_rng(seed)
    for day in range(n_days):
        if day < switch_day:
            x = rng.beta(rng.uniform(10, 15), rng.uniform(10, 15), per_day)
        else:
            a1, b1 = rng.uniform(25, 40), rng.uniform(15, 20)
            a2, b2 = rng.uniform(2, 4), rng.uniform(4, 6)
            pick = rng.uniform(size=per_day) < 0.5
            x = np.where(pick, rng.beta(a1, b1, per_day), rng.beta(a2, b2, per_day))
        yield day * 86400.0 + np.arange(per_day) * (86400.0 / per_day), 2.0 + 2.0 * x


def write_raw_csv(path: Path, days) -> None:
    """The raw series CSV that ``bayes_cpd.io.write_raw_series_csv`` writes
    for the concatenated days, written a day at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for t, v in days:
            writer.writerows(zip(t.tolist(), v.tolist()))  # csv writes a float as its repr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=100)
    parser.add_argument("--switch-day", type=int, default=50)
    parser.add_argument("--per-day", type=int, default=240)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", default="results/ingest_demo")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw = out / "raw.csv"
    write_raw_csv(raw, synthesize(args.seed, args.days, args.switch_day, args.per_day))
    print(f"wrote {raw} (switch after day {args.switch_day})")

    run = lambda *cmd: subprocess.run([sys.executable, "-m", "bayes_cpd.cli", *cmd])
    start = time.perf_counter()
    ingest = run("ingest", str(raw), "--timestamp-format", "epoch",
                 "--out", str(out / "densities.csv"), "--report", str(out / "ingest.json"))
    seconds = time.perf_counter() - start
    # ingest is the only child waited for so far; ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if ingest.returncode != 0:
        print(f"ingest exit {ingest.returncode}: failed", file=sys.stderr)
        return ingest.returncode
    print(f"ingest: {seconds / args.days:.3f} s per day, peak RSS {peak_mb:.0f} MB")
    result = run("detect", str(out / "densities.csv"), "--clean",
                 "--seed", str(args.seed),
                 "--out", str(out / "detection.json"),
                 "--profile-csv", str(out / "profile.csv"),
                 "--cleaning-report", str(out / "cleaning.json"))
    verdict = {0: "change-point found", 1: "no change-point", 3: "degenerate input"}
    print(f"detect exit {result.returncode}: "
          f"{verdict.get(result.returncode, 'error')}; outputs in {out}/")
    return 0 if result.returncode in (0, 1) else result.returncode


if __name__ == "__main__":
    sys.exit(main())
