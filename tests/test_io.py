"""Serialization edge cases."""

import json

import numpy as np
import pytest

from bayes_cpd import ExperimentConfig, Grid, beta_density, zero_avoid
from bayes_cpd.io import (
    dump_json,
    experiment_report_to_dict,
    read_density_csv,
    read_raw_series_csv,
    write_density_csv,
)
from bayes_cpd.simlab import ExperimentReport, ReplicateRecord, summarize_records
from bayes_cpd.errors import CsvFormatError


def test_error_records_serialize_without_nan(tmp_path):
    config = ExperimentConfig(generator="model1", n=10, k_star=5, replicates=1)
    records = (
        ReplicateRecord(replicate=0, method="error", k_hat=0, abs_error=0,
                        p_value=float("nan"), rejected=False,
                        error="RuntimeError: boom"),
    )
    report = ExperimentReport(config=config, records=records,
                              summaries=summarize_records(records))
    text = dump_json(experiment_report_to_dict(report))
    assert "NaN" not in text
    payload = json.loads(text)
    assert payload["replicates"][0]["p_value"] is None
    assert payload["summaries"]["error"]["median_abs_error"] is None


def test_density_csv_round_trip_is_exact(tmp_path):
    grid = Grid(64)
    values = np.vstack([zero_avoid(beta_density(grid, a, 7.0)).values
                        for a in (3.0, 5.0, 9.0, 11.0)])
    path = tmp_path / "d.csv"
    write_density_csv(path, grid, values)
    grid2, back = read_density_csv(path)
    assert grid2 == grid
    np.testing.assert_array_equal(back, values)


def test_non_uniform_grid_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    nodes = np.linspace(0, 1, 32)
    nodes[5] += 1e-3
    path.write_text(",".join(repr(float(x)) for x in nodes) + "\n"
                    + ",".join("1.0" for _ in nodes) + "\n")
    with pytest.raises(CsvFormatError):
        read_density_csv(path)


def test_bad_density_row_carries_line_number(tmp_path):
    grid = Grid(32)
    path = tmp_path / "bad.csv"
    header = ",".join(repr(float(x)) for x in grid.nodes)
    path.write_text(header + "\n" + ",".join("2.0" for _ in grid.nodes) + "\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_density_csv(path)


def test_first_bad_line_wins_over_a_later_parse_error(tmp_path):
    grid = Grid(32)
    good = ",".join(repr(float(v)) for v in zero_avoid(beta_density(grid, 4, 4)).values)
    header = ",".join(repr(float(x)) for x in grid.nodes)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, good, good, "-" + good, "x,y", good]) + "\n")
    with pytest.raises(CsvFormatError, match="line 4") as info:
        read_density_csv(path)
    assert info.value.line == 4


@pytest.mark.parametrize("bad, problem", [("-", "invalid"), ("x", "non-numeric")],
                         ids=["invalid-row", "parse-error"])
def test_density_lines_counted_through_blank_lines(tmp_path, bad, problem):
    grid = Grid(32)
    good = ",".join(repr(float(v)) for v in zero_avoid(beta_density(grid, 4, 4)).values)
    header = ",".join(repr(float(x)) for x in grid.nodes)
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(["", header, "", good, "", bad + good, good]) + "\n")
    with pytest.raises(CsvFormatError, match=problem) as info:
        read_density_csv(path)
    assert info.value.line == 6


def test_raw_series_lines_counted_through_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("timestamp,value\n\n1,2\nx,3\n")
    with pytest.raises(CsvFormatError, match="line 4"):
        read_raw_series_csv(path, "epoch")


@pytest.mark.parametrize("body, line", [
    ("1,2\n2,3\n3,4\n4,nan\n5,6\n", 5),
    ("1,2\n2,3\n3,4\n2.5,4\n5,6\n", 5),
    ("1,2\n2,3\n3,4\n\n2.5,4\n5,6\n", 6),
], ids=["nan-value", "backwards-timestamp", "blank-line-before"])
def test_bad_raw_sample_carries_its_line_number(tmp_path, body, line):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,value\n" + body)
    with pytest.raises(CsvFormatError, match=f"line {line}:") as info:
        read_raw_series_csv(path, "epoch")
    assert info.value.line == line


def test_empty_raw_series_reported_after_header(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("\ntimestamp,value\n")
    with pytest.raises(CsvFormatError, match="line 3: empty series"):
        read_raw_series_csv(path, "epoch")
