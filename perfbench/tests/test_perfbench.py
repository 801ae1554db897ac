"""Self-tests of the benchmark, on the tiny ``--smoke`` profile.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metrics the report lines print per workload, with their units.
REPORTED = {
    "detect": {"detect_n100_p50_ms": "ms", "detect_n300_p50_ms": "ms",
               "detect_hetero_p50_ms": "ms", "detect_p90_ms": "ms", "ops_failed_ratio": "ratio"},
    "experiment": {"experiment_rep_per_s": "replicates/s", "ops_failed_ratio": "ratio"},
    "ingest": {"ingest_s_per_day": "s/day", "ops_failed_ratio": "ratio"},
}


def run_bench(*args):
    cmd = RUN + ["--smoke", "--seed", "5", "--seconds", "0.5", *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_unit(trace):
    code, lines, merged = run_bench("--workload", "all", "--trace", str(trace))
    assert code == 0, "\n".join(lines)
    assert merged["correct"] and merged["failed"] == 0 and merged["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    for wl in ("detect", "experiment", "ingest"):
        got = {k.split("/", 1)[1]: v for k, v in merged["metrics"].items()
               if k.startswith(wl + "/")}
        assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in got.items()}
        if trace:
            assert f"{wl}.layer_sum_check = ok" in lines
        else:
            assert all(v["value"] > 0 for v in got.values())
            for name, unit in REPORTED[wl].items():
                assert any(line.startswith(f"{wl}.{name} = ") and f" {unit} " in line + " "
                           for line in lines), name


def _tamper(refs, workload):
    refs = copy.deepcopy(refs)
    if workload == "detect":
        for ref in refs["detect"].values():
            ref["k_hat"] += 1
    elif workload == "experiment":
        for ref in refs["experiment"].values():
            for methods in ref["k_hat"].values():
                for method in methods:
                    methods[method] += 1
    else:
        for ref in refs["ingest"].values():
            ref["clr"][0][0] += 1.0
    return refs


@pytest.mark.parametrize("workload", ["detect", "experiment", "ingest"])
def test_tampered_reference_is_a_failed_op(tmp_path, workload):
    refs = json.loads((BENCH / "refs" / "smoke.json").read_text())
    ctx = workloads.Context(profile=inputs.SMOKE, seed=5, seconds=0.0, trace=False,
                            work=tmp_path, out=tmp_path, refs=_tamper(refs, workload), threads=1)
    wl = workloads.WORKLOADS[workload](ctx)
    wl.write_inputs()
    tally = workloads.Tally()
    workloads.run_untraced(wl, ctx, tally)
    assert tally.failed == tally.attempted > 0
    assert tally.problems


def test_traced_replay_reproduces_untraced_detect(tmp_path):
    from bayes_cpd import cli

    profile = inputs.SMOKE
    entry = inputs.detect_plan(profile, 5)["hetero"][0]
    data, out = tmp_path / "in.csv", tmp_path / "out.json"
    inputs.write_detect_input(profile, entry, data)
    argv = inputs.detect_argv(profile, entry, data, out)

    assert cli.main(argv) in (0, 1)
    untraced = out.read_bytes()
    out.unlink()
    with tracing.Tracer().install() as tracer:
        tracer.call("cli.main", cli.main, argv)
    assert out.read_bytes() == untraced
    assert not tracer.missing and not tracer.count_errors

    names = {span[0] for span in tracer.spans}
    assert {"io.read_density_csv", "density.validate", "density.clr", "engine.detect",
            "engine.cusum", "engine.eigen", "engine.mc", "engine.pvalue"} <= names
    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[3] is None
    total = sum(tracing.self_times(tracer.spans).values())
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)
    payload = json.loads(untraced)
    steps = 100  # smoke profile: 101 bridge nodes
    assert tracer.counts["mc_draws"] == 200 * payload["L"] * steps
    # Hooks are gone again after the with block.
    assert cli.detect.__module__ == "bayes_cpd.engine"


def test_self_time_subtracts_union_of_concurrent_children():
    spans = [("a.root", 0.0, 10.0, None, 0),
             ("b.x", 1.0, 5.0, 0, 0), ("b.y", 3.0, 6.0, 0, 0), ("c.z", 2.0, 3.0, 1, 0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"a.root": 5.0, "b.x": 3.0, "b.y": 3.0, "c.z": 1.0})
    # b.x and b.y overlap on [3, 5]: less that, the self times give the root's wall.
    assert tracing.concurrent_overlap(spans) == pytest.approx(2.0)
    assert sum(selfs.values()) - tracing.concurrent_overlap(spans) == pytest.approx(10.0)


def test_p_value_band_accepts_restream_and_rejects_shift():
    ref = {"k_hat": 50, "statistic": 2.0, "p_value": 0.4, "alpha": 0.05, "reject_null": False,
           "L": 2, "eigenvalues": [1.0, 0.5], "mc_samples": 2000, "degenerate": False,
           "method": "bayes-clr"}
    near = dict(ref, p_value=0.42)
    assert checks.check_detect(1, near, ref) == []
    far = dict(ref, p_value=0.6)
    assert any("p_value" in p for p in checks.check_detect(1, far, ref))
    assert checks.check_detect(2, near, ref) == ["exit code 2"]
    drift = dict(ref, eigenvalues=[1.0, 0.5 * (1 + 1e-6)])
    assert checks.check_detect(1, drift, ref) == ["retained eigenvalues differ from reference"]


def test_stop_rule_never_cuts_an_experiment_cycle():
    class Wl:
        name, cycle, whole_cycles = "experiment", 4, True

    ctx = workloads.Context(profile=inputs.SMOKE, seed=0, seconds=0.0, trace=False,
                            work=Path("."), out=Path("."), refs={}, threads=1)
    assert workloads._keep_going(Wl, 0.0, ctx, 0)
    assert workloads._keep_going(Wl, 0.0, ctx, 3)
    assert not workloads._keep_going(Wl, 0.0, ctx, 4)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "detect",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
