"""Serialization edge cases."""

import csv
import dataclasses
import datetime as dt
import gzip
import io
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bayes_cpd import (
    ExperimentConfig,
    Grid,
    RawSeries,
    beta_density,
    build_sequence,
    detect,
    run_experiment,
    simlab,
    zero_avoid,
)
from bayes_cpd import io as bio
from bayes_cpd.cli import main
from bayes_cpd.io import (
    _line_blocks,
    _read_density_rows,
    _read_raw_rows,
    detection_result_to_dict,
    dump_json,
    experiment_report_to_dict,
    ingestion_report_to_dict,
    read_density_csv,
    read_raw_series_csv,
    write_boxplot_csv,
    write_density_csv,
    write_profile_csv,
    write_raw_series_csv,
    write_replicates_csv,
)
from bayes_cpd.engine import CusumProfile
from bayes_cpd.simlab import ExperimentReport, ReplicateRecord, summarize_records
from bayes_cpd.errors import CsvFormatError, DegenerateInputError

from helpers import two_segment_sequence

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "bayes_cpd" / "schemas"


def schema_keys(name, *path):
    """Property names, in schema order, of the object at ``path`` in a schema."""
    node = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    for key in path:
        node = node[key]
    return list(node["properties"])


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


def test_detection_result_keys_follow_the_schema():
    result = detect(two_segment_sequence(Grid(64), 5, 5), mc_samples=50, seed=1)
    keys = schema_keys("detection_result")
    assert list(detection_result_to_dict(result)) == [
        k for k in keys if k != "increment_csv_path"
    ]
    assert list(detection_result_to_dict(result, "inc.csv")) == keys


def test_ingestion_report_keys_follow_the_schema():
    rng = np.random.default_rng(4)
    t = np.arange(8 * 80) * 1080.0
    _, report = build_sequence(RawSeries(t, 2.0 + 2.0 * rng.beta(10, 12, t.size)))
    payload = ingestion_report_to_dict(report)
    assert list(payload) == schema_keys("ingestion_report")
    assert list(payload["support"]) == schema_keys("ingestion_report", "properties", "support")


def test_experiment_report_keys_follow_the_schema(monkeypatch):
    calls = []
    stage = simlab._detect_statistic

    def first_call_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise DegenerateInputError("nothing to detect")
        return stage(*args, **kwargs)

    monkeypatch.setattr(simlab, "_detect_statistic", first_call_fails)
    config = ExperimentConfig(generator="model2", n=30, k_star=15, replicates=2,
                              grid_nodes=128, mc_samples=100)
    payload = json.loads(dump_json(experiment_report_to_dict(run_experiment(config))))
    assert list(payload) == schema_keys("experiment_report")
    assert list(payload["config"]) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    summary_keys = schema_keys("experiment_report", "properties", "summaries",
                               "additionalProperties")
    assert sorted(payload["summaries"]) == ["bayes-clr", "error"]
    for summary in payload["summaries"].values():
        assert list(summary) == summary_keys
    replicate_keys = schema_keys("experiment_report", "properties", "replicates", "items")
    assert [list(r) for r in payload["replicates"]] == [replicate_keys] * 2
    errored, ok = payload["replicates"]
    assert errored["error"] == "DegenerateInputError: nothing to detect"
    assert errored["p_value"] is None
    assert ok["error"] is None and 0 <= ok["p_value"] <= 1
    error_summary = payload["summaries"]["error"]
    assert error_summary["count"] == 1
    assert [error_summary[k] for k in summary_keys if k != "count"] == [None] * 4


def test_boxplot_csv_whiskers_and_fliers_follow_the_tukey_fences(tmp_path):
    # "many": q1 = 10, q3 = 12, fences 7 and 15, so 0, 16 and 30 are fliers.
    # "few" (3 records, no pass-through): q1 = 7, q3 = 24.5, fences
    # -19.25 and 50.75, so the whiskers end at the extreme records.
    errors = {"many": [11, 0, 10, 12, 30, 10, 16, 11, 12], "few": [40, 5, 9]}
    records = tuple(
        ReplicateRecord(replicate=r, method=method, k_hat=50 + e, abs_error=e,
                        p_value=0.01, rejected=True)
        for method, errs in errors.items() for r, e in enumerate(errs)
    ) + (ReplicateRecord(replicate=9, method="error", k_hat=0, abs_error=0,
                         p_value=float("nan"), rejected=False, error="RuntimeError: x"),)
    report = ExperimentReport(config=ExperimentConfig(generator="model1"), records=records,
                              summaries=summarize_records(records))
    path = tmp_path / "boxplot.csv"
    write_boxplot_csv(path, report)
    assert path.read_text().splitlines() == [
        "method,median,q1,q3,whisker_lo,whisker_hi,n_fliers,fliers",
        "few,9.0,7.0,24.5,5.0,40.0,0,",
        "many,11.0,10.0,12.0,10.0,12.0,3,0.0;16.0;30.0",
    ]


def test_boxplot_csv_quartiles_are_the_summaries(tmp_path):
    report = run_experiment(ExperimentConfig(generator="model3", n=40, k_star=20,
                                             replicates=5, compare_l2=True, mc_samples=100,
                                             grid_nodes=64, seed=12))
    path = tmp_path / "boxplot.csv"
    write_boxplot_csv(path, report)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = {row["method"]: row for row in csv.DictReader(fh)}
    assert sorted(rows) == ["bayes-clr", "l2-raw"]
    for method, row in rows.items():
        summary = report.summaries[method]
        assert [float(row[k]) for k in ("median", "q1", "q3")] == [
            summary.median_abs_error, summary.q1_abs_error, summary.q3_abs_error]


def test_every_csv_writer_writes_its_golden_bytes(tmp_path):
    # floats as their shortest repr, NaN p_value and absent error as empty
    # cells, booleans as true/false, csv quoting, CR LF line ends
    values = np.array([[0.1, 1 / 3, 1e-300, 5e-324, 1e16, 123456789.12345679] + [1.0] * 10,
                       [2.5] * 16])
    records = tuple(
        ReplicateRecord(replicate=r, method="bayes-clr", k_hat=50 + e, abs_error=e,
                        p_value=p, rejected=p < 0.05, L=2)
        for r, (e, p) in enumerate([(0, 0.0), (3, 0.01), (3, 1 / 3), (3, 0.5), (4, 0.04),
                                    (25, 1.0)])
    ) + (ReplicateRecord(replicate=6, method="error",
                         error='DegenerateInputError: a "quoted", text'),)
    report = ExperimentReport(config=ExperimentConfig(generator="model1"), records=records,
                              summaries=summarize_records(records))
    writers = {
        "density": lambda path: write_density_csv(path, Grid(16), values),
        "raw": lambda path: write_raw_series_csv(
            path, RawSeries(np.array([1700000000.0, 1700000000.5]), np.array([2.0, 0.1]))),
        "profile": lambda path: write_profile_csv(
            path, CusumProfile(norms_sq=np.array([0.25, 1 / 3, 0.0]), argmax_k=2,
                               degenerate=False)),
        "replicates": lambda path: write_replicates_csv(path, report),
        "boxplot": lambda path: write_boxplot_csv(path, report),
    }
    expected = {
        "density": (
            b"0.0,0.06666666666666667,0.13333333333333333,0.2,0.26666666666666666,"
            b"0.3333333333333333,0.4,0.4666666666666667,0.5333333333333333,0.6,"
            b"0.6666666666666666,0.7333333333333333,0.8,0.8666666666666667,"
            b"0.9333333333333333,1.0\r\n"
            b"0.1,0.3333333333333333,1e-300,5e-324,1e+16,123456789.12345679,"
            b"1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\r\n"
            b"2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5,2.5\r\n"
        ),
        "raw": b"timestamp,value\r\n1700000000.0,2.0\r\n1700000000.5,0.1\r\n",
        "profile": b"k,norm_sq\r\n1,0.25\r\n2,0.3333333333333333\r\n3,0.0\r\n",
        "replicates": (
            b"replicate,k_hat,abs_error,p_value,rejected,method,L,error\r\n"
            b"0,50,0,0.0,true,bayes-clr,2,\r\n"
            b"1,53,3,0.01,true,bayes-clr,2,\r\n"
            b"2,53,3,0.3333333333333333,false,bayes-clr,2,\r\n"
            b"3,53,3,0.5,false,bayes-clr,2,\r\n"
            b"4,54,4,0.04,true,bayes-clr,2,\r\n"
            b"5,75,25,1.0,false,bayes-clr,2,\r\n"
            b'6,0,0,,false,error,0,"DegenerateInputError: a ""quoted"", text"\r\n'
        ),
        "boxplot": (
            b"method,median,q1,q3,whisker_lo,whisker_hi,n_fliers,fliers\r\n"
            b"bayes-clr,3.0,3.0,3.75,3.0,4.0,2,0.0;25.0\r\n"
        ),
    }
    for name, write in writers.items():
        path = tmp_path / f"{name}.csv"
        write(path)
        assert path.read_bytes() == expected[name], name


def test_density_csv_round_trip_is_exact(tmp_path):
    grid = Grid(64)
    values = np.vstack([zero_avoid(beta_density(grid, a, 7.0)).values
                        for a in (3.0, 5.0, 9.0, 11.0)])
    path = tmp_path / "d.csv"
    write_density_csv(path, grid, values)
    seq = read_density_csv(path)
    assert seq.grid == grid
    np.testing.assert_array_equal(seq.values, values)


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


_GRID16 = Grid(16)
_HEADER = ",".join(repr(float(x)) for x in _GRID16.nodes)
_CELLS = [repr(float(v)) for v in zero_avoid(beta_density(_GRID16, 4.0, 6.0)).values]
_MID = _CELLS[8]  # an ordinary "d.ddd..." cell


def _density_file(*rows: list[str], end: str = "\n") -> str:
    """The grid row, ``rows``, then ``_CELLS`` rows up to the 4 densities a
    sequence needs."""
    rows = [*rows, *[_CELLS] * (4 - len(rows))]
    return end.join([_HEADER, *(",".join(r) for r in rows)]) + end


def _with_cell(cell: str) -> list[str]:
    return _CELLS[:8] + [cell] + _CELLS[9:]


_GOOD = _density_file(_CELLS, _CELLS, _CELLS)
_BLANK_THEN_BAD_GRID = "\n".join([  # node 1 is 1/15 on a uniform grid
    "", ",".join(["0.0", "0.1", *_HEADER.split(",")[2:]]), ",".join(_CELLS)]) + "\n"
_INSERTED = "\n".join([_HEADER, ",".join(_CELLS), "{}", *[",".join(_CELLS)] * 3]) + "\n"

# (file text, None for a valid file or the row reader's error)
_DIFFERENTIAL_CASES = {
    "whitespace-line": (_INSERTED.format("   "), "line 3: non-numeric cell"),
    "tab-line": (_INSERTED.format("\t"), "line 3: non-numeric cell"),
    "hash-line": (_INSERTED.format("# a comment"), "line 3: non-numeric cell"),
    "quoted-cell": (_density_file(_with_cell(f'"{_MID}"'), _CELLS), None),
    "padded-cell": (_density_file(_with_cell(f"  {_MID} "), _CELLS), None),
    "plus-sign": (_density_file(_with_cell(f"+{_MID}"), _CELLS), None),
    "underscore-digits": (_density_file(_with_cell(f"{_MID[:3]}_{_MID[3:]}"), _CELLS), None),
    "fortran-exponent": (_density_file(_with_cell("1.0d0"), _CELLS), "line 2: non-numeric cell"),
    "separator-padding": (_density_file(_CELLS, _with_cell(f"\x1c{_MID}")),
                          "line 3: non-numeric cell"),
    "trailing-comma": (_density_file(_CELLS, _CELLS + [""]), "line 3: non-numeric cell"),
    "crlf": (_density_file(_CELLS, _CELLS, end="\r\n"), None),
    "lone-cr": (_density_file(_CELLS, _CELLS, end="\r"), None),
    "blank-lines": ("\n" + _INSERTED.format(""), None),
    "bom": ("\ufeff" + _GOOD, None),
    "ragged-row": (_density_file(_CELLS, _CELLS[:-1]), "line 3: expected 16 values, got 15"),
    "invalid-utf8": (_density_file(_CELLS, _with_cell(_MID + "\udcff")),
                     "line 3: invalid UTF-8 byte 0xff"),
    "invalid-utf8-after-bad-row": (_density_file(_CELLS[:-1], _with_cell(_MID + "\udcff")),
                                   "line 2: expected 16 values, got 15"),
    "non-finite": (_density_file(_CELLS, _with_cell("nan")),
                   "line 3: invalid density row 2: non-finite"),
    "grid-only": (_HEADER + "\n", "sequence needs at least 4 densities, got 0"),
    "empty": ("", "line 1: need a grid row"),
    "blank-only": ("\n\r\n\n", "line 1: need a grid row"),
    "blank-line-then-bad-grid": (_BLANK_THEN_BAD_GRID,
                                 "line 2: grid row is not a uniform partition of [0, 1]"),
}


@pytest.mark.parametrize("text, problem", _DIFFERENTIAL_CASES.values(),
                         ids=_DIFFERENTIAL_CASES.keys())
def test_bulk_density_parse_agrees_with_row_reader(tmp_path, text, problem):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    outcomes = []
    for read in (read_density_csv, _read_density_rows):
        try:
            seq = read(path)
            outcomes.append((seq.grid.node_count, seq.values.shape, seq.values.tobytes()))
        except (CsvFormatError, DegenerateInputError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]
    if problem is None:
        assert outcomes[0][0] == 16
    else:
        assert outcomes[0][1].startswith(problem)


@pytest.mark.parametrize("text, rows", [
    (_GOOD, 4), (_density_file(_CELLS, end="\r\n"), 4), (_HEADER + "\n", 0), ("\ufeff" + _GOOD, 4),
], ids=["lf", "crlf", "grid-only", "bom"])
def test_well_formed_density_csv_is_read_in_one_pass(tmp_path, monkeypatch, text, rows):
    def row_reader(path):
        raise AssertionError("the row reader ran on a well-formed file")

    monkeypatch.setattr(bio, "_read_density_rows", row_reader)
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    if rows < 4:  # parsed, then refused as a sequence
        with pytest.raises(DegenerateInputError, match=f"got {rows}$"):
            read_density_csv(path)
    else:
        seq = read_density_csv(path)
        assert seq.grid == _GRID16 and seq.values.shape == (rows, 16)


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-only"])
def test_detect_on_a_file_without_data_reports_only_the_error(tmp_path, capsys, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["detect", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: line 1: need a grid row\n"


def test_gzip_density_csv_is_read_as_its_bytes(tmp_path, capsys):
    # np.loadtxt given a "*.gz" path would gunzip it; every reader reads bytes
    path = tmp_path / "d.csv.gz"
    path.write_bytes(gzip.compress(_GOOD.encode(), mtime=0))
    assert main(["detect", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1: invalid UTF-8 byte 0x8b\n"


def test_plain_text_with_a_compressed_suffix_reads_as_plain(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(_GOOD)
    expected = read_density_csv(plain).values.tobytes()
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        path = tmp_path / f"plain.csv{suffix}"
        path.write_text(_GOOD)
        assert read_density_csv(path).values.tobytes() == expected


def test_url_shaped_path_is_a_local_file(tmp_path, monkeypatch, capsys):
    # np.loadtxt given "http://..." would fetch it
    monkeypatch.chdir(tmp_path)
    url = "http://127.0.0.1:9/x.csv"
    assert main(["detect", url]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{url}'\n"
    local = tmp_path / "http:" / "127.0.0.1:9"
    local.mkdir(parents=True)
    (local / "x.csv").write_text(_GOOD)
    assert read_density_csv(url).values.shape == (4, 16)


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


@pytest.mark.parametrize("timestamp_format", ["epoch", "iso"])
@pytest.mark.parametrize("samples, problem", [
    ([(1, "1.0"), (2, "nan")], "non-finite timestamp or value"),
    ([(2, "1.0"), (1, "1.0")], "timestamps must be non-decreasing"),
], ids=["nan-value", "backwards-timestamp"])
def test_invalid_raw_sample_is_reported_before_a_later_parse_error(tmp_path, timestamp_format,
                                                                     samples, problem):
    epoch = dt.datetime(2024, 3, 1)
    stamp = (str if timestamp_format == "epoch"
             else lambda t: (epoch + dt.timedelta(seconds=t)).isoformat())
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,value\n"
                    + "".join(f"{stamp(t)},{v}\n" for t, v in [*samples, (3, "x")]))
    with pytest.raises(CsvFormatError) as info:
        read_raw_series_csv(path, timestamp_format)
    assert str(info.value) == f"line 3: {problem}"


def test_empty_raw_series_reported_after_header(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("\ntimestamp,value\n")
    with pytest.raises(CsvFormatError, match="line 3: empty series"):
        read_raw_series_csv(path, "epoch")


def test_density_csv_with_a_bom_reads_as_without(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(_GOOD, encoding="utf-8")
    bom.write_text(_GOOD, encoding="utf-8-sig")
    assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
    seq, seq2 = read_density_csv(plain), read_density_csv(bom)
    assert seq2.grid == seq.grid
    np.testing.assert_array_equal(seq2.values, seq.values)


def _raw_file(timestamp_format: str, days: int = 8, per_day: int = 80) -> str:
    """Header plus ``days`` days of samples every 1080 s, in one timestamp form."""
    rng = np.random.default_rng(9)
    t = np.arange(days * per_day) * (86400 // per_day)
    v = 2.0 + 2.0 * rng.beta(10.0, 12.0, t.size)
    if timestamp_format == "epoch":
        stamps = [repr(float(x)) for x in t]
    else:
        epoch = dt.datetime(1970, 1, 1)
        stamps = [(epoch + dt.timedelta(seconds=int(x))).isoformat() for x in t]
    return "timestamp,value\n" + "".join(f"{a},{b!r}\n" for a, b in zip(stamps, v.tolist()))


@pytest.mark.parametrize("timestamp_format", ["epoch", "iso"])
def test_raw_csv_with_a_bom_ingests_as_without(tmp_path, timestamp_format):
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        raw, out = tmp_path / f"{encoding}.csv", tmp_path / f"{encoding}-dens.csv"
        raw.write_text(_raw_file(timestamp_format), encoding=encoding)
        assert main(["ingest", str(raw), "--timestamp-format", timestamp_format,
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_iso_and_epoch_forms_of_one_series_read_alike(tmp_path):
    series = []
    for timestamp_format in ("epoch", "iso"):
        path = tmp_path / f"{timestamp_format}.csv"
        path.write_text(_raw_file(timestamp_format))
        series.append(read_raw_series_csv(path, timestamp_format))
    assert series[0].timestamps.tobytes() == series[1].timestamps.tobytes()
    assert series[0].values.tobytes() == series[1].values.tobytes()


def _raw_outcome(read, path):
    try:
        series = read(path, "epoch")
        return series.timestamps.tobytes(), series.values.tobytes()
    except CsvFormatError as exc:
        return type(exc).__name__, exc.line, str(exc)


def _epoch(*rows: str, end: str = "\n") -> str:
    return end.join(["timestamp,value", *rows]) + end


# (epoch file, None for a valid file or the row reader's error)
_RAW_DIFFERENTIAL_CASES = {
    "crlf": (_epoch("1,2", "2,3", end="\r\n"), None),
    "lone-cr": (_epoch("1,2", "2,3", end="\r"), None),
    "no-final-newline": (_epoch("1,2", "2,3").rstrip("\n"), None),
    "blank-lines": ("\n" + _epoch("1,2", "", "\r\n2,3", ""), None),
    "whitespace-line": (_epoch("1,2", "  ", "2,3"), "line 3: expected 2 cells, got 1"),
    "quoted-cell": (_epoch("1,2", '"2",3'), None),
    "quoted-header": ('"timestamp",value\n1,2\n', None),
    "one-cell": (_epoch("1,2", "3"), "line 3: expected 2 cells, got 1"),
    "three-cells": (_epoch("1,2", "2,3,4"), "line 3: expected 2 cells, got 3"),
    "all-one-cell": (_epoch("1", "2"), "line 2: expected 2 cells, got 1"),
    "all-three-cells": (_epoch("1,2,3", "2,3,4"), "line 2: expected 2 cells, got 3"),
    "underscore-digits": (_epoch("1,2", "1_000,3"), None),
    "hex-float": (_epoch("1,2", "0x1p3,3"), "line 3: bad epoch timestamp"),
    "separator-padding": (_epoch("1,2", "\x1c2,3"), "line 3: bad epoch timestamp"),
    "invalid-utf8": (_epoch("1,2", "2,3\udcff"), "line 3: invalid UTF-8 byte 0xff"),
    "invalid-utf8-crlf": (_epoch("1,2", "", "2,3\udce2\udc82", end="\r\n"),
                          "line 4: invalid UTF-8 byte 0xe2"),
    "invalid-utf8-lone-cr": (_epoch("1,2", "2,3\udcff", end="\r"), "line 3: invalid UTF-8"),
    "invalid-utf8-header": ("timestamp,val\udcffue\n1,2\n", "line 1: invalid UTF-8"),
    "invalid-utf8-after-bad-row": (_epoch("1,2", "2", "3,4\udcff"),
                                   "line 3: expected 2 cells, got 1"),
    "nul-byte": (_epoch("1,2", "2,3\x00"), "line 3: non-numeric value"),
    "nan-value": (_epoch("1,2", "2,nan", "3,4"), "line 3: non-finite"),
    "inf-timestamp": (_epoch("1,2", "inf,3"), "line 3: non-finite"),
    "backwards-timestamp": (_epoch("1,2", "3,3", "\n2,4"),
                            "line 5: timestamps must be non-decreasing"),
    "header-only": ("\ntimestamp,value\n", "line 3: empty series"),
    "header-variant": (" Timestamp , VALUE\r\n1,2\r\n", None),
    "wrong-header": ("time,value\n1,2\n", 'line 1: expected header'),
    "bom": ("\ufeff" + _epoch("1,2", "2,3"), None),
    "fully-quoted-header": ('"timestamp","value"\n1,2\n2,3\n', None),
    "blank-lines-then-quoted-header": ('\n\r\n\r"timestamp","value"\r\n1,2\r\n', None),
    "invalid-utf8-line-3-first-block": ('"timestamp","value"\n1,2\n2,3\udcff\n4,5\n',
                                        "line 3: invalid UTF-8 byte 0xff"),
    "header-over-two-lines": ('"timestamp\n",value\n', "line 3: empty series"),
    "header-over-two-lines-then-data": ('\r\ntimestamp,"value\r"\r\n1,2\r\n', None),
}


@pytest.mark.parametrize("text, problem", _RAW_DIFFERENTIAL_CASES.values(),
                         ids=_RAW_DIFFERENTIAL_CASES.keys())
def test_bulk_raw_parse_agrees_with_row_reader(tmp_path, text, problem):
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = [_raw_outcome(read, path) for read in (read_raw_series_csv, _read_raw_rows)]
    assert outcomes[0] == outcomes[1] and caught == []
    if problem is None:
        assert isinstance(outcomes[0][0], bytes)
    else:
        assert outcomes[0][2].startswith(problem)


@pytest.mark.parametrize("data, counts", [
    (b"", (0, 0)), (b"a", (1, 0)), (b"\n", (0, 1)), (b"a\r\nb", (2, 1)),
    (b"\r\r\n\na\n b\r", (2, 5)),
], ids=["empty", "unfinished", "blank", "crlf-then-unfinished", "mixed-ends"])
def test_line_counts_count_records_and_line_ends(data, counts):
    assert bio._line_counts(data) == counts


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_blocks_cut_only_after_a_whole_line_end(monkeypatch, end):
    data = _raw_file("iso", days=1, per_day=8).replace("\n", end).encode()
    longest = max(len(line) for line in data.splitlines(keepends=True))
    for size in range(1, len(data) + 2):
        monkeypatch.setattr(bio, "_RAW_BLOCK_BYTES", size)
        blocks = list(_line_blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data
        assert all(b.endswith(end.encode()) for b in blocks[:-1])
        assert max(map(len, blocks)) <= size + longest


@pytest.mark.parametrize("text, kind", [
    (_raw_file("epoch", days=1, per_day=40), "epoch"),
    (_raw_file("epoch", days=1, per_day=40).replace("\n", "\r\n"), "epoch"),
    (_raw_file("epoch", days=1, per_day=40).replace("\n", "\r"), "epoch"),
    (_GOOD.replace("\n", "\r\n"), "density"),
], ids=["epoch-lf", "epoch-crlf", "epoch-cr", "density-crlf"])
def test_records_split_across_blocks_parse_alike(tmp_path, monkeypatch, text, kind):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    if kind == "density":
        read = lambda: read_density_csv(path).values.tobytes()
    else:
        def read():
            series = read_raw_series_csv(path, "epoch")
            return series.timestamps.tobytes(), series.values.tobytes()

    def row_reader(*args):
        raise AssertionError("the row reader ran on a well-formed file")

    expected = read()
    monkeypatch.setattr(bio, "_read_raw_rows", row_reader)
    monkeypatch.setattr(bio, "_read_density_rows", row_reader)
    for size in (7, 24, 31, 64, 101):
        monkeypatch.setattr(bio, "_RAW_BLOCK_BYTES", size)
        assert read() == expected


@pytest.mark.parametrize("kind", ["epoch", "density"])
def test_bulk_parse_hands_loadtxt_the_path_once(tmp_path, monkeypatch, kind):
    # numpy reads a path in chunks in C, a file object one line at a time
    text = _raw_file("epoch", days=1, per_day=80) if kind == "epoch" else _GOOD
    path = tmp_path / "f.csv"
    path.write_text(text)
    loadtxt, calls = np.loadtxt, []

    def recording_loadtxt(fname, *args, **kwargs):
        calls.append((fname, kwargs.get("max_rows")))
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(bio, "_RAW_BLOCK_BYTES", 100)
    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    if kind == "epoch":
        read_raw_series_csv(path, "epoch")
    else:
        read_density_csv(path)
    records = text.count("\n") - (kind == "epoch")
    assert len(calls) == 1
    fname, max_rows = calls[0]
    assert isinstance(fname, str) and max_rows == records


def test_blank_lines_cost_the_bulk_parse_no_rows_and_no_warning(tmp_path, monkeypatch):
    # numpy allocates all max_rows rows at once, and warns of a blank line
    def row_reader(path):
        raise AssertionError("the row reader ran on a well-formed file")

    monkeypatch.setattr(bio, "_read_density_rows", row_reader)
    path = tmp_path / "d.csv"
    row = ",".join(_CELLS)
    path.write_text(f"{_HEADER}\n{row}" + "\n" * 100_000 + f"{row}\n" * 3)
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = read_density_csv(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (4, 16) and caught == []
    assert peak <= 8 * bio._RAW_BLOCK_BYTES


def test_bulk_parse_shows_a_shown_warning_no_second_time(tmp_path):
    # entering or leaving warnings.catch_warnings clears every module's record
    # of the warnings it has shown once
    path = tmp_path / "d.csv"
    path.write_text(_GOOD)

    def warn():
        warnings.warn("shown once", UserWarning)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        warn()
        read_density_csv(path)
        read_density_csv(path)
        warn()
    assert [str(w.message) for w in caught] == ["shown once"]


@pytest.mark.parametrize("text", [
    _raw_file("epoch"), _raw_file("epoch").replace("\n", "\r\n"), "\ufeff" + _raw_file("epoch"),
    _raw_file("epoch").replace("timestamp,value", '"timestamp","value"', 1),
], ids=["lf", "crlf", "bom", "quoted-header"])
def test_well_formed_epoch_csv_is_read_in_blocks(tmp_path, monkeypatch, text):
    def row_reader(*args):
        raise AssertionError("the row reader ran on a well-formed file")

    monkeypatch.setattr(bio, "_read_raw_rows", row_reader)
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("utf-8"))
    series = read_raw_series_csv(path, "epoch")
    assert series.timestamps.size == text.count("\n") - 1


@pytest.mark.parametrize("text, read, line, message", [
    ("\n".join([_HEADER, "", ",".join(_CELLS), "", "-" + ",".join(_CELLS)]) + "\n",
     read_density_csv, 5, "invalid density row 2: negative density value"),
    (_BLANK_THEN_BAD_GRID, read_density_csv, 2, "grid row is not a uniform partition of [0, 1]"),
    (_epoch("1,2", "3,3", "\n2,4"), lambda path: read_raw_series_csv(path, "epoch"),
     5, "timestamps must be non-decreasing"),
], ids=["density-row", "density-grid", "epoch-sample"])
def test_record_failing_its_check_is_named_without_the_row_reader(tmp_path, monkeypatch, text,
                                                                  read, line, message):
    def row_reader(*args):
        raise AssertionError("the row reader ran on a file the block parse read")

    monkeypatch.setattr(bio, "_read_density_rows", row_reader)
    monkeypatch.setattr(bio, "_read_raw_rows", row_reader)
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as info:
        read(path)
    assert info.value.line == line and str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("timestamp_format, n", [("epoch", 1 << 20), ("iso", 1 << 18)],
                         ids=["epoch", "iso"])
def test_raw_parse_holds_the_series_once(tmp_path, timestamp_format, n):
    # the parsed columns take 16 B a sample, and the parse itself holds a
    # few blocks at a time
    rng = np.random.default_rng(3)
    t = (1.7e9 + np.arange(n)).tolist()
    v = (2.0 + 2.0 * rng.beta(8.0, 10.0, n)).tolist()
    if timestamp_format == "epoch":
        stamps = map(repr, t)
    else:
        stamps = (dt.datetime.fromtimestamp(x, dt.timezone.utc).isoformat() for x in t)
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,value\n" + "".join(f"{a},{b!r}\n" for a, b in zip(stamps, v)))
    tracemalloc.start()
    try:
        series = read_raw_series_csv(path, timestamp_format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.timestamps.tolist() == t and series.values.tolist() == v
    if timestamp_format == "epoch":  # the two columns of one table
        assert np.may_share_memory(series.timestamps, series.values)
    else:
        assert series.timestamps.flags.c_contiguous and series.values.flags.c_contiguous
    # a table per block beside the joined columns, or a float object per
    # sample, would exceed this
    assert peak <= 16 * n + 8 * bio._RAW_BLOCK_BYTES


def _file_with_invalid_byte(kind: str, line: int, end: str) -> bytes:
    """A 40-line file of ``kind`` whose ``line``-th line ends in byte 0xff."""
    if kind == "density":
        lines = [_HEADER] + [",".join(_CELLS)] * 39
    else:
        lines = _raw_file(kind, days=1, per_day=39).splitlines()
    data = [text.encode() for text in lines]
    data[line - 1] += b"\xff"
    return end.encode().join(data) + end.encode()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", ["epoch", "iso", "density"])
def test_invalid_utf8_is_named_on_its_line_in_any_block(tmp_path, monkeypatch, kind, end):
    path = tmp_path / "f.csv"
    for size in (7, 31, 100):
        monkeypatch.setattr(bio, "_RAW_BLOCK_BYTES", size)
        for line in (1, 2, 3, 9, 17, 40):
            path.write_bytes(_file_with_invalid_byte(kind, line, end))
            with pytest.raises(CsvFormatError) as info:
                if kind == "density":
                    read_density_csv(path)
                else:
                    read_raw_series_csv(path, kind)
            assert str(info.value) == f"line {line}: invalid UTF-8 byte 0xff"


def test_malformed_iso_record_before_an_invalid_byte_is_reported_first(tmp_path, monkeypatch):
    lines = [text.encode() for text in _raw_file("iso", days=1, per_day=39).splitlines()]
    lines[12] = lines[12].split(b",")[0]
    lines[29] += b"\xff"
    path = tmp_path / "raw.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    monkeypatch.setattr(bio, "_RAW_BLOCK_BYTES", 31)
    with pytest.raises(CsvFormatError, match="^line 13: expected 2 cells, got 1$"):
        read_raw_series_csv(path, "iso")


def test_iso_offset_is_honoured_and_a_naive_timestamp_is_utc(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,value\n2024-03-01T10:00:00,1\n2024-03-01T11:00:01+01:00,2\n")
    assert read_raw_series_csv(path, "iso").timestamps.tolist() == [1709287200.0, 1709287201.0]


def test_epoch_numbers_are_not_iso_timestamps(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,value\n1,2\n2,3\n")
    with pytest.raises(CsvFormatError, match="line 2: bad iso timestamp '1'"):
        read_raw_series_csv(path, "iso")
