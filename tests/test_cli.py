"""Command-line round trips, exit codes, schemas, and byte determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bayes_cpd import engine, simlab
from bayes_cpd.cli import main
from bayes_cpd.errors import DegenerateInputError
from bayes_cpd.io import write_density_csv, write_raw_series_csv
from bayes_cpd.seeds import derive_seed
from bayes_cpd import Grid, RawSeries, beta_density, zero_avoid

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "bayes_cpd" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


@pytest.fixture()
def sim_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--generator", "model1", "--n", "100", "--kstar", "50",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


def _small_break_csv(tmp_path):
    grid = Grid(64)
    pre = zero_avoid(beta_density(grid, 12, 12)).values
    post = zero_avoid(beta_density(grid, 6, 14)).values
    path = tmp_path / "small.csv"
    write_density_csv(path, grid, np.vstack([pre] * 5 + [post] * 5))
    return path


class TestDetectCommand:
    def test_break_found_exit_zero(self, sim_csv, tmp_path):
        res = tmp_path / "res.json"
        code = main(["detect", str(sim_csv), "--mc-samples", "300", "--seed", "1",
                     "--out", str(res)])
        assert code == 0
        payload = json.loads(res.read_text())
        validate(payload, "detection_result")
        assert payload["reject_null"] is True
        assert abs(payload["k_hat"] - 50) <= 2
        assert payload["method"] == "bayes-clr"

    def test_identical_rows_exit_one_p_one(self, tmp_path, capsys):
        grid = Grid(64)
        f = zero_avoid(beta_density(grid, 5, 5))
        path = tmp_path / "const.csv"
        write_density_csv(path, grid, np.vstack([f.values] * 6))
        code = main(["detect", str(path), "--mc-samples", "50"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "detection_result")
        assert payload["p_value"] == 1.0
        assert payload["degenerate"] is True

    def test_l2_method_flag_routed(self, sim_csv, tmp_path):
        res = tmp_path / "res.json"
        code = main(["detect", str(sim_csv), "--method", "l2-raw",
                     "--mc-samples", "300", "--seed", "1", "--out", str(res)])
        payload = json.loads(res.read_text())
        validate(payload, "detection_result")
        assert payload["method"] == "l2-raw"
        assert code in (0, 1)

    @pytest.mark.parametrize("method", ["bayes-clr", "l2-raw"])
    def test_profile_csv_matches_method(self, sim_csv, tmp_path, method):
        res, prof = tmp_path / "r.json", tmp_path / "p.csv"
        main(["detect", str(sim_csv), "--method", method, "--mc-samples", "200",
              "--seed", "1", "--out", str(res), "--profile-csv", str(prof)])
        rows = prof.read_text().strip().splitlines()[1:]
        norms = np.array([float(r.split(",")[1]) for r in rows])
        k_hat = json.loads(res.read_text())["k_hat"]
        assert int(np.argmax(norms)) + 1 == k_hat

    def test_malformed_csv_exit_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        good = ",".join(repr(float(x)) for x in np.linspace(0, 1, 16))
        path.write_text(good + "\n1,2,3\n")
        assert main(["detect", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [0, 2, 3])
    def test_too_few_rows_exit_three(self, tmp_path, capsys, rows):
        grid = Grid(64)
        f = zero_avoid(beta_density(grid, 5, 5))
        path = tmp_path / "tiny.csv"
        write_density_csv(path, grid, np.repeat(f.values[None, :], rows, axis=0))
        assert main(["detect", str(path)]) == 3
        assert f"got {rows}" in capsys.readouterr().err

    def test_profile_and_increment_outputs(self, sim_csv, tmp_path):
        res, prof, inc = (tmp_path / n for n in ("r.json", "p.csv", "i.csv"))
        code = main(["detect", str(sim_csv), "--mc-samples", "300", "--seed", "1",
                     "--out", str(res), "--profile-csv", str(prof),
                     "--increment-csv", str(inc)])
        assert code == 0
        lines = prof.read_text().strip().splitlines()
        assert lines[0] == "k,norm_sq"
        assert len(lines) == 101
        payload = json.loads(res.read_text())
        assert payload["increment_csv_path"] == str(inc)
        assert inc.exists()

    def test_clean_flag_with_report(self, sim_csv, tmp_path):
        rep = tmp_path / "cleaning.json"
        code = main(["detect", str(sim_csv), "--clean", "--mc-samples", "300",
                     "--seed", "1", "--out", str(tmp_path / "r.json"),
                     "--cleaning-report", str(rep)])
        assert code == 0
        validate(json.loads(rep.read_text()), "cleaning_report")

    def test_clean_with_l2_method_exit_two_before_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["detect", missing, "--clean", "--method", "l2-raw"]) == 2
        assert capsys.readouterr().err == (
            "error: --clean is only available with the bayes-clr method\n")

    def test_cleaning_report_without_clean_exit_two_before_input_is_read(self, tmp_path,
                                                                         capsys):
        missing = str(tmp_path / "missing.csv")
        rep = tmp_path / "r.json"
        assert main(["detect", missing, "--cleaning-report", str(rep)]) == 2
        err = capsys.readouterr().err
        assert "--cleaning-report" in err and "missing.csv" not in err
        assert not rep.exists()

    def test_increment_with_l2_method_exit_two_before_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        inc = tmp_path / "i.csv"
        assert main(["detect", missing, "--method", "l2-raw", "--increment-csv", str(inc)]) == 2
        err = capsys.readouterr().err
        assert "--increment-csv" in err and "missing.csv" not in err
        assert not inc.exists()

    def test_allocation_failure_exit_two_without_output(self, sim_csv, tmp_path, capsys,
                                                        monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 84.0 TiB for an array")

        monkeypatch.setattr(engine, "_simulate_chunk", out_of_memory)
        out = tmp_path / "r.json"
        assert main(["detect", str(sim_csv), "--mc-samples", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 84.0 TiB for an array\n"
        assert not out.exists()

    def test_error_without_a_message_names_its_type(self, tmp_path, capsys):
        # The chunk list of this many samples cannot be built: its MemoryError,
        # raised before anything is allocated, carries no message.
        out = tmp_path / "r.json"
        assert main(["detect", str(_small_break_csv(tmp_path)), "--mc-samples",
                     "99999999999999999999", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()

    def test_config_file_overridden_by_flags(self, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mc_samples = 100\nseed = 9\nalpha = 0.01\n")
        code = main(["detect", str(sim_csv), "--config", str(cfg),
                     "--mc-samples", "200"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mc_samples"] == 200  # flag wins
        assert payload["seed"] == 9          # config wins over default
        assert payload["alpha"] == 0.01

    def test_theta_out_of_range_exit_two(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["detect", str(_small_break_csv(tmp_path)), "--theta", "2",
                     "--mc-samples", "50", "--out", str(out)]) == 2
        assert "theta" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exit_two(self, sim_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["detect", str(sim_csv), "--config", str(cfg)]) == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_help_lists_flags_and_defaults(self, capsys):
        assert main(["detect", "--help"]) == 0
        text = capsys.readouterr().out
        for fragment in ("--alpha", "--mc-samples", "--theta", "--seed",
                         "--bridge-nodes", "--method", "--threads",
                         "(default: 0.05)", "(default: 2000)", "(default: 0.95)"):
            assert fragment in text

    @pytest.mark.parametrize("command", ["detect", "experiment"])
    def test_centering_flag_is_gone(self, sim_csv, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        argv = {
            "detect": ["detect", str(sim_csv), "--mc-samples", "50"],
            "experiment": ["experiment", "--generator", "model1", "--replicates", "1",
                           "--out-dir", str(out_dir)],
        }[command]
        assert main(argv + ["--centering", "global"]) == 2
        assert "--centering" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--generator", "model2", "--n", "30",
                         "--kstar", "15", "--seed", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
               (tmp_path / "b.csv.meta.json").read_bytes()

    def test_sidecar_lists_contaminated_indices(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["simulate", "--generator", "model3", "--n", "50",
                     "--kstar", "25", "--seed", "6", "--contaminate", "20",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "c.csv.meta.json").read_text())
        validate(sidecar, "simulate_sidecar")
        assert len(sidecar["contaminated_indices"]) == 20
        assert sidecar["k_star"] == 25

    def test_generated_file_passes_detect_validation(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["simulate", "--generator", "sim1", "--n", "20", "--kstar", "10",
              "--seed", "8", "--out", str(out)])
        code = main(["detect", str(out), "--mc-samples", "100",
                     "--out", str(tmp_path / "r.json")])
        assert code in (0, 1)

    def test_same_data_as_the_experiment_replicate(self, tmp_path):
        config = simlab.ExperimentConfig("model1", n=30, k_star=15, replicates=1,
                                         contamination_count=4, mc_samples=100, seed=11)
        replicate = simlab.run_experiment(config).records[0]
        out = tmp_path / "r.csv"
        assert main(["simulate", "--generator", "model1", "--n", "30", "--kstar", "15",
                     "--seed", str(derive_seed(11, 0)), "--contaminate", "4",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert tuple(sidecar["contaminated_indices"]) == replicate.contaminated_indices

    def test_unknown_generator_exit_two(self, tmp_path):
        assert main(["simulate", "--generator", "nope",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_negative_contamination_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--generator", "model1", "--n", "40", "--kstar", "20",
                     "--contaminate", "-3", "--out", str(out)]) == 2
        assert "contamination count must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.csv.meta.json").exists()


def _write_series(tmp_path, days=8, switch=None, per_day=80):
    rng = np.random.default_rng(42)
    ts, vals = [], []
    for day in range(days):
        a, b = (10, 12) if switch is None or day < switch else (3, 6)
        x = rng.beta(a, b, per_day)
        ts.append(day * 86400.0 + np.arange(per_day) * (86400.0 / per_day))
        vals.append(2.0 + 2.0 * x)
    path = tmp_path / "raw.csv"
    write_raw_series_csv(path, RawSeries(np.concatenate(ts), np.concatenate(vals)))
    return path


class TestIngestCommand:
    def test_density_row_per_day_and_report(self, tmp_path):
        raw = _write_series(tmp_path)
        out, rep = tmp_path / "dens.csv", tmp_path / "rep.json"
        code = main(["ingest", str(raw), "--timestamp-format", "epoch",
                     "--out", str(out), "--report", str(rep)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 8
        payload = json.loads(rep.read_text())
        validate(payload, "ingestion_report")
        assert payload["segments_total"] == 8

    def test_ingest_then_detect_recovers_switch(self, tmp_path):
        raw = _write_series(tmp_path, days=12, switch=6)
        out = tmp_path / "dens.csv"
        main(["ingest", str(raw), "--timestamp-format", "epoch", "--out", str(out),
              "--report", str(tmp_path / "rep.json")])
        res = tmp_path / "res.json"
        code = main(["detect", str(out), "--mc-samples", "400", "--seed", "2",
                     "--out", str(res)])
        assert code == 0
        assert abs(json.loads(res.read_text())["k_hat"] - 6) <= 1

    @pytest.mark.parametrize("usable, days, per_day", [(0, 6, 20), (3, 3, 80)],
                             ids=["0-usable", "3-usable"])
    def test_fewer_than_four_usable_windows_exit_three(self, tmp_path, capsys,
                                                       usable, days, per_day):
        raw = _write_series(tmp_path, days=days, per_day=per_day)
        assert main(["ingest", str(raw), "--timestamp-format", "epoch",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert f"only {usable} usable segments" in capsys.readouterr().err

    def test_bad_header_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nohdr.csv"
        path.write_text("time,val\n1,2\n")
        assert main(["ingest", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("support", ["5:1", "3:3"])
    def test_empty_user_support_exit_two(self, tmp_path, capsys, support):
        raw = _write_series(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["ingest", str(raw), "--timestamp-format", "epoch",
                     "--support", support, "--out", str(out)]) == 2
        assert "lower < upper" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_user_support_exit_two_before_input_is_read(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("timestamp,value\n0,not-a-number\n")
        assert main(["ingest", str(raw), "--timestamp-format", "epoch",
                     "--support", "5:1", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "lower < upper" in err and "line 2" not in err

    @pytest.mark.parametrize("flag, value, named", [
        ("--whisker", "nan", "whisker"),
        ("--bandwidth", "nan", "bandwidth"),
        ("--bandwidth", "inf", "bandwidth"),
        ("--bandwidth", "1e-5", "bandwidth"),
        ("--window-seconds", "nan", "window"),
        ("--window-seconds", "1e-300", "window"),
        ("--support", "1:inf", "support"),
        ("--margin", "nan", "margin"),
        ("--margin", "inf", "margin"),
    ])
    def test_nan_or_out_of_range_setting_exit_two(self, tmp_path, capsys, flag, value, named):
        raw = _write_series(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["ingest", str(raw), "--timestamp-format", "epoch",
                     flag, value, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("min_count", ["0", "-1"])
    def test_min_count_below_one_exit_two(self, tmp_path, capsys, min_count):
        rng = np.random.default_rng(3)
        days = np.array([0, 1, 2, 4, 5, 6])  # day 3 is a gap, so its window is empty
        t = (days[:, None] * 86400.0 + np.arange(80) * 1080.0).ravel()
        raw = tmp_path / "gap.csv"
        write_raw_series_csv(raw, RawSeries(t, 2.0 + 2.0 * rng.beta(10, 12, t.size)))
        out = tmp_path / "x.csv"
        assert main(["ingest", str(raw), "--timestamp-format", "epoch",
                     "--min-count", min_count, "--out", str(out)]) == 2
        assert "min_count" in capsys.readouterr().err
        assert not out.exists()

    def test_one_sample_window_named_with_its_settings(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        t = np.append(np.arange(6 * 80) * 1080.0, 6 * 86400.0)  # window 6 holds one sample
        raw = tmp_path / "tail.csv"
        write_raw_series_csv(raw, RawSeries(t, 2.0 + 2.0 * rng.beta(10, 12, t.size)))
        out = tmp_path / "x.csv"
        argv = ["ingest", str(raw), "--timestamp-format", "epoch", "--min-count", "1",
                "--out", str(out), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "window 6" in err and "min_count" in err and "bandwidth" in err
        assert not out.exists()
        assert main(argv + ["--bandwidth", "0.05"]) == 0

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_numeric_bandwidth_exit_two(self, tmp_path, capsys, via):
        raw = _write_series(tmp_path)
        out = tmp_path / "x.csv"
        if via == "flag":
            extra = ["--bandwidth", "abc"]
        else:
            cfg = tmp_path / "ingest.cfg"
            cfg.write_text("bandwidth = abc\n")
            extra = ["--config", str(cfg)]
        assert main(["ingest", str(raw), "--timestamp-format", "epoch", *extra,
                     "--out", str(out)]) == 2
        assert "--bandwidth" in capsys.readouterr().err
        assert not out.exists()

    def test_bandwidth_help_shows_auto_default(self, capsys):
        assert main(["ingest", "--help"]) == 0
        assert "(default: auto)" in " ".join(capsys.readouterr().out.split())

    def test_constant_values_exit_three(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        ts = np.arange(8 * 40) * (86400.0 / 40)
        write_raw_series_csv(path, RawSeries(ts, np.full(ts.size, 2.5)))
        assert main(["ingest", str(path), "--timestamp-format", "epoch",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "all values equal" in capsys.readouterr().err

    @pytest.mark.parametrize("support, code", [(["--support", "1:5"], 0), ([], 3)],
                             ids=["fixed-support", "estimated-support"])
    def test_infinite_whisker_on_zero_iqr_matches_a_huge_finite_one(self, tmp_path, capsys,
                                                                    support, code):
        rng = np.random.default_rng(7)
        ts = np.arange(8 * 80) * (86400.0 / 80)
        values = np.full(ts.size, 2.0)
        values[::5] = 2.0 + 2.0 * rng.beta(10, 12, values[::5].size)  # 80% are 2.0: IQR 0
        raw = tmp_path / "mostly_two.csv"
        write_raw_series_csv(raw, RawSeries(ts, values))
        runs = []
        for whisker in ("1e300", "inf"):
            out, rep = tmp_path / f"{whisker}.csv", tmp_path / f"{whisker}.json"
            rc = main(["ingest", str(raw), "--timestamp-format", "epoch", "--whisker", whisker,
                       *support, "--out", str(out), "--report", str(rep)])
            written = [p.read_bytes() for p in (out, rep) if p.exists()]
            runs.append((rc, capsys.readouterr().err, written))
        assert runs[0][0] == code
        assert runs[1] == runs[0]
        if code == 3:
            assert "all values equal" in runs[0][1]
        else:
            assert len(runs[0][2]) == 2

    def test_iso_timestamps_parsed(self, tmp_path):
        path = tmp_path / "iso.csv"
        rows = ["timestamp,value"]
        rng = np.random.default_rng(3)
        for day in range(4):
            for i in range(40):
                rows.append(f"2024-01-{day+1:02d}T{i // 2:02d}:{(i % 2) * 30:02d}:00,{rng.uniform(2, 4)!r}")
        path.write_text("\n".join(rows) + "\n")
        code = main(["ingest", str(path), "--out", str(tmp_path / "x.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 0


class TestExperimentCommand:
    def test_smoke_run_and_schema(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("generator = model2\nreplicates = 1\nmc_samples = 100\n"
                       "n = 30\nk_star = 15\ngrid_nodes = 128\nseed = 2\n")
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        validate(payload, "experiment_report")
        assert len(payload["replicates"]) == 1

    def test_comparison_table_has_both_methods(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("generator = sim1\nreplicates = 2\nmc_samples = 100\n"
                       "n = 30\nk_star = 15\ngrid_nodes = 128\nseed = 3\n"
                       "compare_l2 = true\n")
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        table = (out_dir / "replicates.csv").read_text()
        assert "bayes-clr" in table and "l2-raw" in table
        box = (out_dir / "boxplot.csv").read_text().strip().splitlines()
        assert len(box) == 3  # header + one row per method

    def test_errored_replicates_counted_and_reported(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateInputError("nothing to detect")

        monkeypatch.setattr(simlab, "_detect_statistic", degenerate)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--generator", "model2", "--replicates", "3",
                     "--n", "30", "--k-star", "15", "--grid-nodes", "128",
                     "--out-dir", str(out_dir)]) == 0
        assert "3 of 3 replicates errored" in capsys.readouterr().err
        payload = json.loads((out_dir / "report.json").read_text())
        validate(payload, "experiment_report")
        assert payload["summaries"]["error"]["count"] == 3
        with open(out_dir / "replicates.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["method"], row["error"], row["p_value"], row["L"]) for row in rows] == [
            ("error", "DegenerateInputError: nothing to detect", "", "0")] * 3

    def test_errored_replicates_counted_once_when_both_arms_raise(self, tmp_path, capsys,
                                                                   monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateInputError("nothing to detect")

        monkeypatch.setattr(simlab, "_detect_statistic", degenerate)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--generator", "model2", "--replicates", "2",
                     "--n", "30", "--k-star", "15", "--grid-nodes", "128", "--compare-l2",
                     "--out-dir", str(out_dir)]) == 0
        assert "2 of 2 replicates errored" in capsys.readouterr().err
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["summaries"]["error"]["count"] == 4  # one record per arm

    def test_alpha_out_of_range_exit_two_without_report(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["experiment", "--generator", "model2", "--replicates", "3",
                     "--n", "20", "--k-star", "10", "--grid-nodes", "64",
                     "--alpha", "1.5", "--out-dir", str(out_dir)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("generator = model1\nbogus = 7\n")
        assert main(["experiment", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err


class TestConfigFile:
    """The ``--config`` contract: values parse like flags, flags win."""

    @pytest.mark.parametrize("text", ["alpha = x\n", "method = l1-raw\n",
                                      "clean = maybe\n", "mc_samples 100\n"],
                             ids=["non-numeric", "bad-choice", "bad-boolean", "no-equals"])
    def test_bad_config_exit_two(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "r.json"
        assert main(["detect", str(_small_break_csv(tmp_path)), "--config", str(cfg),
                     "--mc-samples", "50", "--out", str(out)]) == 2
        assert not out.exists()

    def test_centering_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("centering = global\n")
        out = tmp_path / "r.json"
        assert main(["detect", str(_small_break_csv(tmp_path)), "--config", str(cfg),
                     "--mc-samples", "50", "--out", str(out)]) == 2
        assert "unknown config key: 'centering'" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_ignored(self, tmp_path):
        path = _small_break_csv(tmp_path)
        results = []
        for encoding in ("utf-8", "utf-8-sig"):
            cfg = tmp_path / f"{encoding}.cfg"
            cfg.write_text("mc_samples = 50\nseed = 4\n", encoding=encoding)
            out = tmp_path / f"{encoding}.json"
            assert main(["detect", str(path), "--config", str(cfg), "--out", str(out)]) in (0, 1)
            results.append(out.read_bytes())
        assert results[0] == results[1]
        assert json.loads(results[0])["mc_samples"] == 50

    def test_boolean_yes_turns_on_l2_arm(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("generator = model2\nreplicates = 1\nmc_samples = 50\n"
                       "n = 20\nk_star = 10\ngrid_nodes = 64\ncompare_l2 = yes\n")
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        methods = {r["method"] for r in json.loads((out_dir / "report.json").read_text())
                   ["replicates"]}
        assert methods == {"bayes-clr", "l2-raw"}

    def test_boolean_off_leaves_cleaning_off(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clean = off\n")
        rep = tmp_path / "cleaning.json"
        assert main(["detect", str(_small_break_csv(tmp_path)), "--config", str(cfg),
                     "--mc-samples", "50", "--out", str(tmp_path / "r.json"),
                     "--cleaning-report", str(rep)]) == 2
        assert capsys.readouterr().err == "error: --cleaning-report needs --clean\n"
        assert not rep.exists()

    def test_experiment_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("generator = model2\nreplicates = 1\nmc_samples = 50\n"
                       "n = 20\nk_star = 10\ngrid_nodes = 64\nseed = 3\n")
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--replicates", "2",
                     "--generator", "model1", "--out-dir", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["config"]["replicates"] == 2
        assert payload["config"]["generator"] == "model1"
        assert payload["config"]["seed"] == 3


def _write_one_outlier_of_four(tmp_path):
    grid = Grid(64)
    usual = zero_avoid(beta_density(grid, 7, 9)).values
    odd = zero_avoid(beta_density(grid, 2, 20)).values
    path = tmp_path / "four.csv"
    write_density_csv(path, grid, np.vstack([usual, usual, odd, usual]))
    return path


class TestCleanCommand:
    def test_too_few_left_after_cleaning_exit_three_on_both_paths(self, tmp_path):
        path = _write_one_outlier_of_four(tmp_path)
        assert main(["detect", str(path), "--clean", "--mc-samples", "50",
                     "--out", str(tmp_path / "r.json")]) == 3
        assert main(["clean", str(path), "--out", str(tmp_path / "c.csv"),
                     "--report", str(tmp_path / "rep.json")]) == 3

    @pytest.mark.parametrize("whisker", ["0", "-1"])
    def test_non_positive_whisker_exit_two_on_both_paths(self, sim_csv, tmp_path, capsys,
                                                         whisker):
        cleaned, rep, res = tmp_path / "c.csv", tmp_path / "rep.json", tmp_path / "r.json"
        assert main(["clean", str(sim_csv), "--whisker", whisker, "--out", str(cleaned),
                     "--report", str(rep)]) == 2
        assert main(["detect", str(sim_csv), "--clean", "--whisker", whisker,
                     "--mc-samples", "50", "--out", str(res),
                     "--cleaning-report", str(rep)]) == 2
        assert capsys.readouterr().err.count("whisker must be positive") == 2
        assert not (cleaned.exists() or rep.exists() or res.exists())

    def test_bad_setting_exit_two_before_cleaning(self, tmp_path, capsys):
        # cleaning this file leaves 3 densities (exit 3); the setting is checked first
        path = _write_one_outlier_of_four(tmp_path)
        out = tmp_path / "r.json"
        assert main(["detect", str(path), "--clean", "--theta", "2", "--mc-samples", "50",
                     "--out", str(out)]) == 2
        assert "theta must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("whisker", ["0.5", "1.5", "3"])
    def test_report_names_the_rule_and_its_whisker(self, tmp_path, whisker):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--generator", "model3", "--n", "40", "--kstar", "20",
                     "--seed", "5", "--contaminate", "8", "--grid-nodes", "64",
                     "--out", str(out)]) == 0
        rep = tmp_path / "rep.json"
        assert main(["clean", str(out), "--whisker", whisker, "--out", str(tmp_path / "c.csv"),
                     "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["detector"] == "clr-median-distance"
        assert payload["params"] == {"whisker": float(whisker)}

    def test_clean_writes_report_and_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--generator", "model3", "--n", "40", "--kstar", "20",
              "--seed", "5", "--contaminate", "8", "--out", str(out)])
        cleaned, rep = tmp_path / "clean.csv", tmp_path / "rep.json"
        assert main(["clean", str(out), "--out", str(cleaned),
                     "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        validate(payload, "cleaning_report")
        rows = cleaned.read_text().strip().splitlines()
        assert len(rows) == 1 + len(payload["kept_indices"])


class TestOutputPaths:
    @pytest.mark.parametrize("case", ["out-under-a-file", "out-is-a-dir", "input-is-a-dir",
                                      "out-dir-is-a-file"])
    def test_os_errors_exit_two(self, sim_csv, tmp_path, capsys, case):
        argv = {
            "out-under-a-file": ["detect", str(sim_csv), "--mc-samples", "50",
                                 "--out", str(sim_csv / "r.json")],
            "out-is-a-dir": ["detect", str(sim_csv), "--mc-samples", "50",
                             "--out", str(tmp_path)],
            "input-is-a-dir": ["detect", str(tmp_path), "--mc-samples", "50"],
            "out-dir-is-a-file": ["experiment", "--generator", "model1", "--n", "20",
                                  "--k-star", "10", "--replicates", "1", "--mc-samples", "50",
                                  "--grid-nodes", "64", "--out-dir", str(sim_csv)],
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["ingest", "detect", "clean", "simulate"])
    def test_missing_output_directory_writes_nothing(self, sim_csv, tmp_path, capsys,
                                                      command):
        first = tmp_path / "first.out"
        missing = str(tmp_path / "missing" / "dir" / "r.json")
        argv = {
            "ingest": ["ingest", str(_write_series(tmp_path)), "--timestamp-format", "epoch",
                       "--out", str(first), "--report", missing],
            "detect": ["detect", str(sim_csv), "--mc-samples", "50",
                       "--profile-csv", str(first), "--out", missing],
            "clean": ["clean", str(sim_csv), "--out", str(first), "--report", missing],
            "simulate": ["simulate", "--generator", "model1", "--n", "40", "--kstar", "20",
                         "--out", str(first), "--sidecar", missing],
        }[command]
        assert main(argv) == 2
        assert missing in capsys.readouterr().err
        assert not first.exists()


    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_two_outputs_naming_one_file_exit_two(self, sim_csv, tmp_path, capsys,
                                                  monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        argv, second = {
            "simulate": (["simulate", "--generator", "model1", "--n", "40", "--kstar", "20",
                          "--out", "s.csv", "--sidecar"], str(tmp_path / "s.csv")),
            "detect": (["detect", str(sim_csv), "--mc-samples", "50", "--out", "r.json",
                        "--profile-csv"], "./r.json"),
        }[command]
        assert main(argv + [second]) == 2
        assert capsys.readouterr().err == f"error: output path given twice: {second}\n"
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "r.json").exists()

class TestDeterminism:
    def test_detect_byte_identical_across_thread_counts(self, sim_csv, tmp_path):
        outs = []
        for threads in ("1", "3"):
            res = tmp_path / f"r{threads}.json"
            main(["detect", str(sim_csv), "--mc-samples", "400", "--seed", "11",
                  "--threads", threads, "--out", str(res)])
            outs.append(res.read_bytes())
        assert outs[0] == outs[1]

    def test_experiment_byte_identical_across_thread_counts(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("generator = model2\nreplicates = 3\nmc_samples = 100\n"
                       "n = 30\nk_star = 15\ngrid_nodes = 128\nseed = 4\n")
        payloads = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"out{threads}"
            main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir),
                  "--threads", threads])
            payloads.append((out_dir / "report.json").read_bytes()
                            + (out_dir / "replicates.csv").read_bytes()
                            + (out_dir / "boxplot.csv").read_bytes())
        assert payloads[0] == payloads[1]

    def test_ingest_byte_identical_across_thread_counts(self, tmp_path):
        raw = _write_series(tmp_path)
        payloads = []
        for threads in ("1", "2"):
            out, rep = tmp_path / f"d{threads}.csv", tmp_path / f"r{threads}.json"
            assert main(["ingest", str(raw), "--timestamp-format", "epoch", "--threads", threads,
                         "--out", str(out), "--report", str(rep)]) == 0
            payloads.append(out.read_bytes() + rep.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("command", ["detect", "ingest", "experiment"])
    def test_negative_threads_exit_two_before_input_is_read(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.csv")
        argv = {
            "detect": ["detect", missing],
            "ingest": ["ingest", missing, "--out", str(tmp_path / "d.csv")],
            "experiment": ["experiment", "--config", missing,
                           "--out-dir", str(tmp_path / "out")],
        }[command]
        assert main(argv + ["--threads", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "No such file" not in err


#: Runs every command with scipy blocked, as in an install that has only
#: the runtime dependencies; prints one line per failed expectation.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import bayes_cpd.cli as cli
from bayes_cpd import RawSeries
from bayes_cpd.io import write_raw_series_csv

loaded = sorted(m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy")
if loaded:
    print("scipy modules loaded:", loaded)
t = np.arange(6 * 400) * 216.0  # 6 days, 400 samples a day
rng = np.random.default_rng(5)
write_raw_series_csv("raw.csv", RawSeries(t, 2.0 + 2.0 * rng.beta(12.0, 12.0, t.size)))
for argv in (
    ["simulate", "--generator", "model1", "--n", "40", "--kstar", "20", "--seed", "3",
     "--contaminate", "2", "--out", "demo.csv"],
    ["detect", "demo.csv", "--mc-samples", "200", "--out", "result.json"],
    ["detect", "demo.csv", "--clean", "--mc-samples", "200", "--out", "cleaned.json"],
    ["clean", "demo.csv", "--out", "c.csv", "--report", "clean.json"],
    ["ingest", "raw.csv", "--timestamp-format", "epoch", "--out", "dens.csv",
     "--report", "ingest.json"],
    ["experiment", "--generator", "model2", "--n", "30", "--k-star", "15",
     "--replicates", "2", "--mc-samples", "100", "--out-dir", "exp"],
):
    code = cli.main(argv)  # 0 for all: detect finds the break
    if code != 0:
        print(argv[0], "exited", code)
"""


def test_commands_run_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
