"""The three workloads, each run through ``bayes_cpd.cli.main`` in-process.

A workload run is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``run_untraced`` returns the
end-to-end metrics and ``run_traced`` the per-layer metrics, each with a
report of further named metrics; both add every operation's outcome to a
``Tally`` of attempted and failed operations.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing

#: A detect run continues past its deadline until it has this many timed
#: operations, so its p90 has at least ten samples above it.
MIN_DETECT_OPS = 100
#: ...but never beyond this many times the requested run length.
MAX_OVERRUN = 3.0

#: Largest |trace.layer_sum_ratio - trace_overhead_ratio| a traced run
#: reports as "ok": layer self times, less the overlap of concurrent
#: children, must account for the traced op wall time.
LAYER_SUM_TOLERANCE = 0.02

E2E_UNITS = {"setup_s": "s", "unit_p50_ms": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "io.read_density_csv_ms": "ms", "io.write_json_ms": "ms",
    "io.read_raw_csv_s_per_day": "s/day", "io.write_density_csv_ms": "ms",
    "density.sequence_build_ms": "ms", "density.clr_ms": "ms",
    "engine.cusum_ms": "ms", "engine.residuals_ms": "ms", "engine.eigen_ms": "ms",
    "engine.eigen_dim": "count", "engine.mc_ms": "ms", "engine.mc_draws": "count",
    "engine.mc_ns_per_draw": "ns", "engine.mc_chunk_mb": "MB_computed",
    "engine.L_mean": "count", "engine.mc_share": "ratio", "engine.pvalue_ms": "ms",
    "cleaning.flag_ms": "ms", "cleaning.removed": "count", "cleaning.subsequence_ms": "ms",
    "ingestion.boxplot_ms": "ms", "ingestion.segment_ms": "ms",
    "ingestion.bandwidth_ms": "ms", "ingestion.kde_s_per_day": "s/day",
    "ingestion.kde_kernel_evals": "count", "ingestion.kde_ns_per_eval": "ns",
    "ingestion.dropped_segments": "count", "ingestion.outliers_removed": "count",
    "ingestion.max_clr_dist": "clr_norm",
    "simlab.generate_ms": "ms", "simlab.replicates_errored": "count",
    "seeds.busy_ratio": "ratio", "cli.overhead_ms": "ms",
    "trace_overhead_ratio": "ratio", "trace.layer_sum_ratio": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in tracing.SPAN_LAYERS},
}

COUNT_KEYS = ("mc_calls", "mc_L_sum", "mc_draws", "eigensolves", "eigen_dim_sum",
              "cleaning_removed", "kde_calls", "kde_samples", "kde_evals")


@dataclass
class Context:
    profile: inputs.Profile
    seed: int
    seconds: float
    trace: bool
    work: Path
    out: Path
    refs: dict
    threads: int


@dataclass
class Outcome:
    """What one operation did: wall time, problems, output bytes, work units."""

    wall: float
    problems: list
    output: bytes = b""
    units: int = 1          # work units: 1 call, or replicates of a campaign
    failed_units: int = 0
    info: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, key: str, outcome: Outcome) -> None:
        self.attempted += outcome.units
        failed = outcome.failed_units or (outcome.units if outcome.problems else 0)
        self.failed += failed
        self.problems += [f"{key}: {p}" for p in outcome.problems]


def _run_cli(argv: list[str], tracer: tracing.Tracer | None) -> tuple[int, float, list]:
    from bayes_cpd import cli

    start = time.perf_counter()
    try:
        if tracer is not None and tracer.record_spans:
            code = tracer.call("cli.main", cli.main, argv)
        else:
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed op, not a benchmark crash
        return -1, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    return code, time.perf_counter() - start, []


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _cycle_median(timed: list[Outcome], cycle: int, units_per_op: float) -> float:
    """Median over complete cycles of wall time per work unit, in seconds.

    A cycle is one pass over every input of the run, so each sample covers
    the same work; a trailing partial cycle is left out.
    """
    full = len(timed) - len(timed) % cycle
    return statistics.median(
        sum(o.wall for o in timed[i:i + cycle])
        / (sum(o.units for o in timed[i:i + cycle]) * units_per_op)
        for i in range(0, full, cycle)
    )


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Workload:
    """Pool entries in run order; op i runs ``sequence[i % len(sequence)]``.

    ``cycle`` is the number of ops in one pass over every input of the run.
    ``write_inputs`` writes the input files under ``ctx.work``; it runs
    before the first op, in a child process (see ``run.py``).
    """

    name: str
    whole_cycles = False
    sequence: list
    cycle: int
    units_per_op = 1.0      # work units per op unit: days of raw data for ingest

    def op(self, i: int) -> tuple[str, dict]:
        entry = self.sequence[i % len(self.sequence)]
        return entry["key"], entry


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

class Detect(Workload):
    name = "detect"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        plan = inputs.detect_plan(ctx.profile, ctx.seed)
        self.entries = {e["key"]: e for entries in plan.values() for e in entries}
        self.paths = {key: ctx.work / f"{e['cls']}-{e['data_seed']}.csv"
                      for key, e in self.entries.items()}
        period = max(len(v) for v in plan.values())
        self.sequence = [plan[cls][c % len(plan[cls])]
                         for c in range(period) for cls in inputs.DETECT_CLASSES]
        self.cycle = len(self.sequence)
        self.result = ctx.work / "detect-result.json"

    def write_inputs(self) -> None:
        for key, path in self.paths.items():
            if not path.exists():
                inputs.write_detect_input(self.ctx.profile, self.entries[key], path)

    def run(self, entry: dict, tracer=None) -> Outcome:
        self.result.unlink(missing_ok=True)
        argv = inputs.detect_argv(self.ctx.profile, entry, self.paths[entry["key"]], self.result)
        code, wall, errors = _run_cli(argv, tracer)
        out = _read_json(self.result)
        raw = self.result.read_bytes() if out is not None else b""
        problems = errors + checks.check_detect(code, out, self.ctx.refs["detect"][entry["key"]])
        return Outcome(wall, problems, raw, info={"cls": entry["cls"]})

    def e2e(self, timed: list[Outcome]) -> dict:
        walls = [o.wall * 1e3 for o in timed]
        report = {}
        for cls in inputs.DETECT_CLASSES:
            cw = [o.wall * 1e3 for o in timed if o.info["cls"] == cls]
            report[f"detect_{cls}_p50_ms"] = (statistics.median(cw), "ms", len(cw))
        report["detect_p90_ms"] = (_quantile(walls, 0.9), "ms", len(walls))
        return report


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

class Experiment(Workload):
    name = "experiment"
    whole_cycles = True   # per-replicate cost differs by family

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sequence = [e for rnd in inputs.experiment_plan(ctx.profile, ctx.seed) for e in rnd]
        self.cycle = len(inputs.FAMILIES)
        self.out_dir = ctx.work / "experiment"

    def write_inputs(self) -> None:
        """The campaigns generate their data inside the program."""

    def run(self, entry: dict, tracer=None) -> Outcome:
        report_path = self.out_dir / "report.json"
        report_path.unlink(missing_ok=True)
        argv = inputs.experiment_argv(self.ctx.profile, entry, self.ctx.threads, self.out_dir)
        code, wall, errors = _run_cli(argv, tracer)
        reps = self.ctx.profile.exp_replicates
        report = _read_json(report_path)
        raw = report_path.read_bytes() if report is not None else b""
        if code != 0 or report is None:
            return Outcome(wall, errors + [f"exit code {code}"], raw, reps, reps)
        failed, problems = checks.check_experiment(report, self.ctx.refs["experiment"][entry["key"]])
        errored = sum(1 for r in report["replicates"] if r["method"] == "error")
        return Outcome(wall, errors + problems, raw, reps, failed, info={"errored": errored})

    def e2e(self, timed: list[Outcome]) -> dict:
        total_wall = sum(o.wall for o in timed)
        total_reps = sum(o.units for o in timed)
        return {"experiment_rep_per_s": (total_reps / total_wall, "replicates/s", total_reps)}


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

class Ingest(Workload):
    name = "ingest"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.entry = inputs.ingest_plan(ctx.profile, ctx.seed)
        self.sequence, self.cycle = [self.entry], 1
        self.raw = ctx.work / f"raw-{self.entry['data_seed']}.csv"
        self.days = self.units_per_op = inputs.ingest_days(ctx.profile)
        self.out = ctx.work / "ingest-densities.csv"
        self.report = ctx.work / "ingest-report.json"

    def write_inputs(self) -> None:
        inputs.write_ingest_input(self.ctx.profile, self.entry, self.raw)

    def run(self, entry: dict, tracer=None) -> Outcome:
        self.out.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        argv = inputs.ingest_argv(self.ctx.profile, self.raw, self.out, self.report)
        code, wall, errors = _run_cli(argv, tracer)
        report = _read_json(self.report)
        try:
            values = inputs.read_density_file(self.out)
        except (OSError, ValueError):
            values = None
        problems, dist = checks.check_ingest(code, report, values, self.ctx.refs["ingest"][entry["key"]])
        raw = b"" if report is None or values is None else self.out.read_bytes() + self.report.read_bytes()
        info = {"max_clr_dist": dist, "days": self.days}
        if report is not None:
            info["dropped"] = len(report.get("segments_dropped", ()))
            info["outliers_removed"] = report.get("scalar_outliers_removed", 0)
        return Outcome(wall, errors + problems, raw, info=info)

    def e2e(self, timed: list[Outcome]) -> dict:
        per_day = _cycle_median(timed, self.cycle, self.units_per_op)
        return {"ingest_s_per_day": (per_day, "s/day", len(timed))}


WORKLOADS = {cls.name: cls for cls in (Detect, Experiment, Ingest)}


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def _keep_going(wl, start: float, ctx: Context, done: int) -> bool:
    """Closed-loop stop rule: run until the deadline.

    Every run completes at least one cycle (one pass over its inputs), and
    experiment runs stop only at a cycle boundary.  An untraced detect run
    continues to MIN_DETECT_OPS timed ops, up to MAX_OVERRUN times the
    requested length.
    """
    if done < wl.cycle or (wl.whole_cycles and done % wl.cycle):
        return True
    elapsed = time.perf_counter() - start
    if elapsed < ctx.seconds:
        return True
    return (wl.name == "detect" and not ctx.trace and done < MIN_DETECT_OPS
            and elapsed < MAX_OVERRUN * ctx.seconds)


def run_untraced(wl, ctx: Context, tally: Tally) -> tuple[dict, dict]:
    warmup = len(inputs.DETECT_CLASSES) if wl.name == "detect" else 0
    for i in range(warmup):
        key, entry = wl.op(i)
        tally.add(key, wl.run(entry))
    timed = []
    start = time.perf_counter()
    i = warmup
    while _keep_going(wl, start, ctx, len(timed)):
        key, entry = wl.op(i)
        outcome = wl.run(entry)
        tally.add(key, outcome)
        timed.append(outcome)
        i += 1
    unit_s = _cycle_median(timed, wl.cycle, wl.units_per_op)
    return {"unit_p50_ms": unit_s * 1e3}, wl.e2e(timed)


def _delta(after: Counter, before: Counter) -> dict:
    return {k: after[k] - before[k] for k in COUNT_KEYS if after[k] != before[k]}


def run_traced(wl, ctx: Context, tally: Tally) -> tuple[dict, dict]:
    """Each op runs twice: with count-only hooks, then fully traced.

    The two runs must give identical output bytes and identical counts, and
    an op that recurs must repeat its counts.
    """
    counter = tracing.Tracer(spans=False)
    tracer = tracing.Tracer(spans=True)
    untraced_walls, traced_walls, units = [], [], 0
    seen_counts: dict[str, dict] = {}
    cycle_counts: Counter | None = None
    outcomes = []
    start = time.perf_counter()
    i = 0
    while _keep_going(wl, start, ctx, i):
        key, entry = wl.op(i)
        before = Counter(counter.counts)
        with counter.install(count_only=True):
            plain = wl.run(entry, counter)
        plain_counts = _delta(counter.counts, before)
        before = Counter(tracer.counts)
        tracer.op = i
        with tracer.install():
            traced = wl.run(entry, tracer)
        traced_counts = _delta(tracer.counts, before)
        problems = list(traced.problems)
        if traced.output != plain.output:
            problems.append("traced output differs from untraced output")
        if traced_counts != plain_counts:
            problems.append(f"counts differ between runs: {plain_counts} vs {traced_counts}")
        if seen_counts.setdefault(key, traced_counts) != traced_counts:
            problems.append(f"counts differ from the previous run of {key}")
        traced.problems = problems
        tally.add(key, plain)
        tally.add(key, traced)
        untraced_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        units += traced.units
        outcomes.append(traced)
        i += 1
        if i == wl.cycle:
            cycle_counts = Counter(tracer.counts)
    tracer.write_spans(ctx.out / f"spans-{wl.name}-{ctx.seed}.jsonl")
    missing = set(tracer.missing + counter.missing) | tracer.count_errors
    metrics = layer_metrics(wl, tracer, cycle_counts, outcomes, units,
                            sum(traced_walls), sum(untraced_walls), missing)
    gap = abs(metrics["trace.layer_sum_ratio"] - metrics["trace_overhead_ratio"])
    report = {"missing_hooks": sorted(missing), "ops_traced": i,
              "layer_sum_gap": (gap, "ratio", i),
              "layer_sum_check": "ok" if gap <= LAYER_SUM_TOLERANCE
                                 else f"outside tolerance {LAYER_SUM_TOLERANCE}"}
    return metrics, report


def layer_metrics(wl, tracer: tracing.Tracer, cycle: Counter, outcomes: list, units: int,
                  traced_wall: float, untraced_wall: float, missing: set) -> dict:
    selfs = tracing.self_times(tracer.spans)
    inclusive = tracing.inclusive_times(tracer.spans)
    layers = tracing.layer_self_times(selfs)
    counts = tracer.counts
    days = sum(o.info.get("days", 0.0) for o in outcomes)
    s = lambda *names: sum(selfs.get(n, 0.0) for n in names)
    per_op_ms = lambda *names: s(*names) / units * 1e3
    ratio = lambda a, b: a / b if b else 0.0
    steps = tracer.peaks.get("mc_steps", 0)
    mc_chunk = getattr(importlib.import_module("bayes_cpd.engine"), "_MC_CHUNK", 0)
    if not mc_chunk:
        missing.add("bayes_cpd.engine._MC_CHUNK")
    first = outcomes[0].info
    m = {
        "io.read_density_csv_ms": per_op_ms("io.read_density_csv"),
        "io.write_json_ms": per_op_ms("io.write_json"),
        "io.read_raw_csv_s_per_day": ratio(s("io.read_raw_csv"), days),
        "io.write_density_csv_ms": per_op_ms("io.write_density_csv"),
        "density.sequence_build_ms": per_op_ms("density.validate", "density.sequence"),
        "density.clr_ms": per_op_ms("density.clr"),
        "engine.cusum_ms": per_op_ms("engine.cusum"),
        "engine.residuals_ms": per_op_ms("engine.residuals"),
        "engine.eigen_ms": per_op_ms("engine.eigen"),
        "engine.eigen_dim": ratio(cycle["eigen_dim_sum"], cycle["eigensolves"]),
        "engine.mc_ms": per_op_ms("engine.mc"),
        "engine.mc_draws": cycle["mc_draws"],
        "engine.mc_ns_per_draw": ratio(s("engine.mc"), counts["mc_draws"]) * 1e9,
        "engine.mc_chunk_mb": mc_chunk * tracer.peaks.get("mc_L_max", 0) * steps * 8 / 2**20,
        "engine.L_mean": ratio(cycle["mc_L_sum"], cycle["mc_calls"]),
        "engine.mc_share": ratio(s("engine.mc"), sum(layers.values())),
        "engine.pvalue_ms": per_op_ms("engine.pvalue"),
        "cleaning.flag_ms": per_op_ms("cleaning.flag"),
        "cleaning.removed": cycle["cleaning_removed"],
        "cleaning.subsequence_ms": per_op_ms("cleaning.subsequence"),
        "ingestion.boxplot_ms": per_op_ms("ingestion.boxplot"),
        "ingestion.segment_ms": per_op_ms("ingestion.segment"),
        "ingestion.bandwidth_ms": per_op_ms("ingestion.bandwidth"),
        "ingestion.kde_s_per_day": ratio(s("ingestion.kde"), days),
        "ingestion.kde_kernel_evals": cycle["kde_evals"],
        "ingestion.kde_ns_per_eval": ratio(s("ingestion.kde"), counts["kde_evals"]) * 1e9,
        "ingestion.dropped_segments": first.get("dropped", 0),
        "ingestion.outliers_removed": first.get("outliers_removed", 0),
        "ingestion.max_clr_dist": max((o.info["max_clr_dist"] for o in outcomes
                                       if o.info.get("max_clr_dist") is not None), default=0.0),
        "simlab.generate_ms": inclusive.get("simlab.generate", 0.0) / units * 1e3,
        "simlab.replicates_errored": sum(o.info.get("errored", 0) for o in outcomes[:wl.cycle]),
        "seeds.busy_ratio": ratio(tracer.pool_busy, tracer.pool_capacity),
        "cli.overhead_ms": per_op_ms("cli.main"),
        "trace_overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.layer_sum_ratio": ratio(sum(layers.values()) - tracing.concurrent_overlap(tracer.spans),
                                       untraced_wall),
    }
    for layer in tracing.SPAN_LAYERS:
        m[f"{layer}.self_ms"] = layers[layer] / units * 1e3
    return m
