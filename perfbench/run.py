#!/usr/bin/env python3
"""Seeded benchmark of bayes-cpd: the detect, experiment and ingest workloads.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own fresh process.  ``--trace 0`` measures the end-to-end metrics with no
tracing installed; ``--trace 1`` is a separate run that records spans
around the calls into each module and reports per-layer metrics.  Every
output is checked against the committed references in ``refs/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an output check failed.
"""

import os

# Pin the numeric libraries to one thread each before numpy is imported, so
# that the threads of a workload never exceed the CPUs it is given.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
WORKLOAD_NAMES = ("detect", "experiment", "ingest")

#: Fresh interpreter start-ups timed before the workload and again after
#: it; setup_s is the median of all of them.  The machine's speed drifts
#: over seconds, so launches spread over the run steady setup_s more than
#: more launches back to back do.
SETUP_RUNS = 4

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bayes_cpd.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.monotonic())\n"
)


def measure_setup(runs: int = SETUP_RUNS) -> list[float]:
    """Seconds from process launch to ``import bayes_cpd.cli`` and
    ``build_parser()`` done, in ``runs`` fresh interpreters."""
    samples = []
    for _ in range(runs):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def write_inputs(wl) -> None:
    """Write the workload's input files in a forked child process, so that
    what generating them allocates stays out of this process's peak RSS."""
    child = multiprocessing.get_context("fork").Process(target=wl.write_inputs)
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"writing the {wl.name} inputs failed: exit code {child.exitcode}")


def cpu_count() -> int:
    """CPUs this process may run on (affinity), not the machine's total."""
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        pass
    return {"cpu": cpu, "nproc": cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and Monte Carlo sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    setup = measure_setup() if not args.trace else []

    import inputs
    import workloads

    profile = inputs.SMOKE if args.smoke else inputs.FULL
    refs = json.loads((BENCH / "refs" / f"{profile.name}.json").read_text(encoding="utf-8"))
    work = RUN_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(profile=profile, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), work=work, out=RUN_DIR / "out",
                            refs=refs, threads=cpu_count())
    wl = workloads.WORKLOADS[args.workload](ctx)
    tally = workloads.Tally()
    try:
        write_inputs(wl)
        if args.trace:
            metrics, report = workloads.run_traced(wl, ctx, tally)
        else:
            metrics, report = workloads.run_untraced(wl, ctx, tally)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["setup_s"] = statistics.median(setup + measure_setup())
    finally:
        shutil.rmtree(work)
    report["ops_failed_ratio"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "profile": profile.name, "environment": env,
              "report": report, "problems": tally.problems[:50]}

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"profile {profile.name}")
    print("# environment " + json.dumps(env))
    for name, value in sorted(report.items()):
        if isinstance(value, tuple):
            print(f"{args.workload}.{name} = {value[0]:.6g} {value[1]}  (n={value[2]})")
        else:
            print(f"{args.workload}.{name} = {value}")
    for name in sorted(metrics):
        print(f"{args.workload}.{name} = {metrics[name]:.6g} {units.get(name, '')}")
    if report.get("layer_sum_check", "ok") != "ok":
        print("# WARNING layer self times do not account for the traced op wall time")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units.get(name, "")}
                    for name in sorted(metrics)},
    }
    record["result"] = result
    (RUN_DIR / "out").mkdir(parents=True, exist_ok=True)
    (RUN_DIR / "out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one summary line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bayes_cpd" / "cli.py").is_file():
        print(f"error: no bayes_cpd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
