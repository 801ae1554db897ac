#!/usr/bin/env python3
"""Regenerate the reference outputs in ``refs/`` from the checked-out program.

    python3 perfbench/make_refs.py --profile full
    python3 perfbench/make_refs.py --profile smoke

Runs every pool entry of every workload once through ``bayes_cpd.cli.main``
and stores what the output checks compare against.  References are taken
once, from a known-good commit; a change that is meant to keep the results
must pass against the existing files, not regenerate them.
"""

import argparse
import json
import shutil
import sys

import run  # pins the numeric libraries to one thread before numpy loads

sys.path[:0] = [str(run.SRC), str(run.BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from bayes_cpd import cli  # noqa: E402

DETECT_FIELDS = ("k_hat", "statistic", "p_value", "alpha", "reject_null", "L",
                 "eigenvalues", "mc_samples", "degenerate", "method")


def _cli(argv):
    code = cli.main(argv)
    if code not in (0, 1):
        raise SystemExit(f"reference run failed with exit {code}: {argv}")
    return code


def detect_refs(profile, work):
    out = {}
    result = work / "result.json"
    for entry in inputs.detect_pool(profile):
        path = work / f"{entry['cls']}-{entry['data_seed']}.csv"
        if not path.exists():
            inputs.write_detect_input(profile, entry, path)
        _cli(inputs.detect_argv(profile, entry, path, result))
        payload = json.loads(result.read_text())
        out[entry["key"]] = {k: payload[k] for k in DETECT_FIELDS}
    return out


def experiment_refs(profile, work):
    out = {}
    for entry in inputs.experiment_pool(profile):
        _cli(inputs.experiment_argv(profile, entry, run.cpu_count(), work))
        report = json.loads((work / "report.json").read_text())
        k_hat = {}
        for rec in report["replicates"]:
            if rec["method"] == "error":
                raise SystemExit(f"replicate errored in {entry['key']}: {rec['error']}")
            k_hat.setdefault(str(rec["replicate"]), {})[rec["method"]] = rec["k_hat"]
        out[entry["key"]] = {"k_hat": k_hat}
    return out


def ingest_refs(profile, work):
    out = {}
    for entry in inputs.ingest_pool(profile):
        raw = work / "raw.csv"
        inputs.write_ingest_input(profile, entry, raw)
        _cli(inputs.ingest_argv(profile, raw, work / "d.csv", work / "r.json"))
        report = json.loads((work / "r.json").read_text())
        values = inputs.read_density_file(work / "d.csv")
        clr = checks.clr_rows(values, checks.trapezoid_weights(values.shape[1]))
        out[entry["key"]] = {
            "report": {k: report[k] for k in checks.REPORT_FIELDS},
            "clr": [[float(f"{x:.9g}") for x in row] for row in clr],
        }
        w = checks.trapezoid_weights(values.shape[1])
        gaps = [float(np.sqrt(((clr[i] - clr[i + 1]) ** 2) @ w)) for i in range(len(clr) - 1)]
        print(f"{entry['key']}: clr distance between consecutive days {np.round(gaps, 4)}")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--profile", choices=sorted(inputs.PROFILES), required=True)
    args = p.parse_args()
    profile = inputs.PROFILES[args.profile]
    work = run.RUN_DIR / "make-refs"
    work.mkdir(parents=True, exist_ok=True)
    try:
        refs = {
            "profile": profile.name,
            "environment": run.environment(),
            "detect": detect_refs(profile, work),
            "experiment": experiment_refs(profile, work),
            "ingest": ingest_refs(profile, work),
        }
    finally:
        shutil.rmtree(work)
    path = run.BENCH / "refs" / f"{profile.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
