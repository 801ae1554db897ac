"""File formats: density CSV, raw-series CSV, and the JSON report shapes.

Every CSV is written by ``_write_csv`` from rows of plain values: ``csv``
writes a float as its shortest round-tripping ``repr`` and None as an
empty cell.  The JSON reports and ``replicates.csv`` take a record's
fields from ``_fields``, the only place a NaN becomes None: ``null`` in
JSON, an empty cell in CSV.  So identical results serialize to identical
bytes.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import datetime as _dt
import io
import itertools
import json
import math
import operator
import os
from array import array
from pathlib import Path

import numpy as np

from .cleaning import DEFAULT_WHISKER, OUTLIER_DETECTOR, CleaningReport, tukey_fences
from .density import Grid, check_density_rows
from .engine import CusumProfile, DetectionResult, DistributionalSequence
from .errors import BayesCpdError, CsvFormatError, StructuralError
from .ingestion import IngestionReport, RawSeries
from .simlab import ExperimentReport

_GRID_ABS_TOL = 1e-9
#: ASCII separators that ``np.loadtxt`` strips as cell padding and ``float`` refuses.
_LOADTXT_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"
#: Bytes of a CSV file read at once by a pre-pass or the row reader.
_RAW_BLOCK_BYTES = 1 << 18
#: Suffixes of the files that ``np.loadtxt``, given their path, would decompress.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

TIMESTAMP_FORMATS = ("iso", "epoch")


def _write_csv(path, header, rows) -> None:
    """Write the CSV file ``path``: the row ``header``, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# density CSV: row 1 = grid nodes, following rows = densities in time order
# ---------------------------------------------------------------------------

def write_density_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Write the grid row, then one row per row of the (n, m) ``values``."""
    _write_csv(path, grid.nodes.tolist(), (row.tolist() for row in values))


def _parse_float_row(row: list[str], line: int) -> np.ndarray:
    try:
        return np.array([float(cell) for cell in row], dtype=np.float64)
    except ValueError as exc:
        raise CsvFormatError(line, f"non-numeric cell ({exc})") from None


def _checked(path, check, *args, prefix: str = ""):
    """``check(*args)``; an error that blames a record of the CSV ``path``
    raises :class:`CsvFormatError` naming that record's line, its message
    after ``prefix``."""
    try:
        return check(*args)
    except BayesCpdError as exc:
        if exc.record is None:
            raise
        raise CsvFormatError(_record_line(path, exc.record), prefix + str(exc)) from None


def _line_counts(data: bytes) -> tuple[int, int]:
    """Non-blank lines and line ends of ``data``, which no CR LF straddles:
    the bytes that begin a line and end none (no line begins inside CR LF),
    and the line ends, LF, CR LF and a lone CR each once, as ``csv`` and
    ``np.loadtxt`` count lines."""
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = codes == ord("\n")
    pairs = 0
    if b"\r" in data:
        ends |= codes == ord("\r")
        pairs = data.count(b"\r\n")
    # a line also begins at byte 0, unless that byte ends one or is absent
    records = int(np.count_nonzero(ends[:-1] > ends[1:])) + (not ends[:1].all())
    return records, int(np.count_nonzero(ends)) - pairs


def _text_lines(fh):
    """Yield the lines of binary handle ``fh``, ends kept, split as ``csv``
    splits a text file opened with ``newline=""``: at LF, CR LF and a lone
    CR only.

    At the first byte that is not UTF-8, yield every whole line before it,
    then raise :class:`CsvFormatError` naming the byte and its line.  A
    block ends after a line end, so no character spans two blocks.
    """
    line = 1
    for block in _line_blocks(fh):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = block[:exc.start]
            ends = _line_counts(head)[1]
            yield from itertools.islice(io.StringIO(head.decode("utf-8"), newline=""), ends)
            raise CsvFormatError(line + ends,
                                 f"invalid UTF-8 byte 0x{block[exc.start]:02x}") from None
        yield from io.StringIO(text, newline="")
        line += _line_counts(block)[1]


def _numbered_rows(fh):
    """Yield each non-blank CSV record of binary handle ``fh`` with the
    physical line it ends on."""
    reader = csv.reader(_text_lines(fh))
    for row in reader:
        if row:
            yield reader.line_num, row


def _grid_from_row(nodes: np.ndarray) -> Grid:
    if nodes.size < 16:
        raise StructuralError(f"grid needs >= 16 nodes, got {nodes.size}", record=0)
    grid = Grid(nodes.size)
    if not np.allclose(nodes, grid.nodes, rtol=0.0, atol=_GRID_ABS_TOL):
        raise StructuralError("grid row is not a uniform partition of [0, 1]", record=0)
    return grid


def _line_blocks(fh):
    """Yield the bytes of binary handle ``fh``, less a leading UTF-8
    byte-order mark, in blocks of about ``_RAW_BLOCK_BYTES`` cut after
    their last line end.

    A block is at most one read plus the unfinished line carried from the
    one before.  A CR that ends a read is carried too: the next read may
    begin with its LF.
    """
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    carry = b""
    while chunk := fh.read(_RAW_BLOCK_BYTES):
        data, chunk = carry + chunk, None
        end = len(data) - data.endswith(b"\r")
        lf = data.rfind(b"\n", 0, end)
        cut = max(lf, data.rfind(b"\r", lf + 1, end)) + 1  # past the last LF, only a CR
        block, carry = data[:cut], data[cut:]
        del data  # the caller works on the block alone
        if block:
            yield block
    if carry:
        yield carry


def _bulk_table(path, header: bool = False) -> np.ndarray | None:
    """The float table of the CSV ``path`` by one ``np.loadtxt`` call, past
    the raw series header when ``header`` is set; None where that parse
    refuses the file, finds no data or could read it otherwise than the
    row reader.

    The row reader finds the header, so numpy skips the lines up to the
    one it ends on, and a header it cannot read raises its own error.

    ``np.loadtxt`` reads a path in chunks in C, but a file object one
    Python line at a time, so it is given the path; its opener would
    decompress a compressed suffix and fetch a URL, so those paths are
    refused.  A pre-pass over the bytes refuses a byte ``np.loadtxt``
    strips and ``float`` refuses, and counts the records and the lines.
    Without a blank line the record count goes to ``max_rows``, so numpy
    allocates the table once; numpy warns of a blank line under
    ``max_rows``, so a file with one is parsed without it.
    """
    path = os.fspath(path)
    if path.endswith(_COMPRESSED_SUFFIXES) or "://" in path:
        return None
    skip, records, lines = 0, 0, 0
    with open(path, "rb") as fh:
        if header:
            skip, cells = next(_numbered_rows(fh), (0, []))
            # a quoted line end in a cell puts the header on lines the record count takes for rows
            if not _is_raw_header(cells) or any("\n" in c or "\r" in c for c in cells):
                return None
            fh.seek(0)
        for block in _line_blocks(fh):
            if any(c in block for c in _LOADTXT_ONLY_SPACE):
                return None
            block_records, block_ends = _line_counts(block)
            records += block_records
            lines += block_ends + (not block.endswith((b"\n", b"\r")))  # an unfinished last line
    rows = records - header  # a header is a record
    if rows < 1:
        return None
    try:
        table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip,
                           max_rows=rows if lines == records else None, encoding="utf-8-sig")
    except ValueError:
        return None
    return table if len(table) == rows else None


def read_density_csv(path) -> DistributionalSequence:
    """Parse a density CSV into the sequence of its grid and density rows.

    Every problem raises :class:`CsvFormatError` with the line number of
    the first bad line, whether it fails to parse or fails validation;
    a file with fewer than 4 densities raises :class:`DegenerateInputError`.
    Blank lines are skipped but still counted.

    The file is parsed by one ``np.loadtxt`` call on its path, which numpy
    reads in chunks where it reads a file object line by line, and row by
    row only where that parse refuses it; a grid or row failing its checks
    is named through :func:`_checked` on the line the row reader would name.
    """
    table = _bulk_table(path)
    if table is None:
        return _read_density_rows(path)
    grid = _checked(path, _grid_from_row, table[0])
    return _checked(path, DistributionalSequence, grid, table[1:], prefix="invalid ")


def _read_density_rows(path) -> DistributionalSequence:
    """The row-by-row reader behind :func:`read_density_csv`."""
    parsed = []
    with open(path, "rb") as fh:
        rows = _numbered_rows(fh)
        grid_line, grid_row = next(rows, (1, None))
        if grid_row is None:
            raise CsvFormatError(1, "need a grid row")
        grid = _checked(path, _grid_from_row, _parse_float_row(grid_row, grid_line))
        try:
            for line, row in rows:
                values = _parse_float_row(row, line)
                if values.size != grid.node_count:
                    raise CsvFormatError(
                        line, f"expected {grid.node_count} values, got {values.size}"
                    )
                parsed.append(values)
        except CsvFormatError:
            if parsed:  # an earlier invalid row comes first
                _checked(path, check_density_rows, grid, np.vstack(parsed), prefix="invalid ")
            raise
    matrix = np.reshape(parsed, (-1, grid.node_count))
    return _checked(path, DistributionalSequence, grid, matrix, prefix="invalid ")


# ---------------------------------------------------------------------------
# raw series CSV: header "timestamp,value"
# ---------------------------------------------------------------------------

def _parse_timestamp(cell: str, timestamp_format: str, line: int) -> float:
    try:
        if timestamp_format == "epoch":
            return float(cell)
        parsed = _dt.datetime.fromisoformat(cell)
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=_dt.timezone.utc)
        return parsed.timestamp()
    except ValueError:
        raise CsvFormatError(line, f"bad {timestamp_format} timestamp {cell!r}") from None


def _is_raw_header(cells: list[str]) -> bool:
    return [c.strip().lower() for c in cells] == ["timestamp", "value"]


def read_raw_series_csv(path, timestamp_format: str = "iso") -> RawSeries:
    """Parse a raw series CSV: the header ``timestamp,value``, then one
    sample per record.  An ISO timestamp without an offset is UTC.

    The first bad record raises :class:`CsvFormatError` with its physical
    line; blank lines are skipped but still counted.

    An epoch file is parsed by one ``np.loadtxt`` call on its path, which
    numpy reads in chunks where it reads a file object line by line, and
    row by row only where that parse refuses it; an ISO file is read row
    by row.  A sample failing the checks of :class:`RawSeries` is named
    through :func:`_checked` on the line the row reader would name.
    """
    if timestamp_format not in TIMESTAMP_FORMATS:
        raise StructuralError(f"timestamp_format must be iso|epoch, got {timestamp_format!r}")
    if timestamp_format == "epoch":
        table = _bulk_table(path, header=True)
        if table is not None and table.shape[1] == 2:  # its two columns, not copied
            return _checked(path, RawSeries, *table.T)
    return _read_raw_rows(path, timestamp_format)


def _read_raw_rows(path, timestamp_format: str) -> RawSeries:
    """The row-by-row reader behind :func:`read_raw_series_csv`; samples
    are appended to two float64 columns, 8 B each."""
    timestamps, values = array("d"), array("d")
    with open(path, "rb") as fh:
        rows = _numbered_rows(fh)
        line, header = next(rows, (1, []))
        if not _is_raw_header(header):
            raise CsvFormatError(line, 'expected header "timestamp,value"')
        try:
            for line, row in rows:
                if len(row) != 2:
                    raise CsvFormatError(line, f"expected 2 cells, got {len(row)}")
                timestamp = _parse_timestamp(row[0], timestamp_format, line)
                try:
                    values.append(float(row[1]))
                except ValueError:
                    raise CsvFormatError(line, f"non-numeric value {row[1]!r}") from None
                timestamps.append(timestamp)  # once both cells parse: the columns stay equal
        except CsvFormatError:
            if timestamps:  # an earlier invalid sample comes first
                _checked(path, RawSeries, np.frombuffer(timestamps), np.frombuffer(values))
            raise
    return _checked(path, RawSeries, np.frombuffer(timestamps), np.frombuffer(values))


def _record_line(path, record: int) -> int:
    """Physical line of record ``record`` of the CSV ``path``: 0 is its
    header or grid row, i >= 1 its i-th data record, and a record past the
    last names the line after it.

    Read again on the error path only, so parsing keeps no per-row lines.
    """
    with open(path, "rb") as fh:
        for i, (line, _) in enumerate(_numbered_rows(fh)):
            if i == record:
                return line
    return line + 1


def write_raw_series_csv(path, series: RawSeries) -> None:
    _write_csv(path, ("timestamp", "value"),
               zip(map(float, series.timestamps), map(float, series.values)))


# ---------------------------------------------------------------------------
# profile / replicate / boxplot CSVs
# ---------------------------------------------------------------------------

def write_profile_csv(path, profile: CusumProfile) -> None:
    _write_csv(path, ("k", "norm_sq"), enumerate(map(float, profile.norms_sq), start=1))


def write_replicates_csv(path, report: ExperimentReport) -> None:
    """One row per record, error records included; a field ``report.json``
    writes as null, such as an error record's ``p_value``, is an empty cell."""
    columns = ("replicate", "k_hat", "abs_error", "p_value", "rejected", "method", "L", "error")
    cells = operator.itemgetter(*columns)
    _write_csv(path, columns, (
        cells({**_fields(rec), "rejected": "true" if rec.rejected else "false"})
        for rec in report.records
    ))


def write_boxplot_csv(path, report: ExperimentReport) -> None:
    """Quartiles, whisker ends, and fliers of abs_error per method."""
    rows = []
    for method, summary in sorted(report.summaries.items()):
        errs = np.array([r.abs_error for r in report.records_for(method)], dtype=np.float64)
        if errs.size == 0:
            continue
        fence_lo, fence_hi = tukey_fences(errs, DEFAULT_WHISKER)
        inside = errs[(errs >= fence_lo) & (errs <= fence_hi)]
        lo, hi = float(inside.min()), float(inside.max())
        fliers = sorted(errs[(errs < lo) | (errs > hi)].tolist())
        rows.append((method, summary.median_abs_error, summary.q1_abs_error,
                     summary.q3_abs_error, lo, hi, len(fliers), ";".join(map(repr, fliers))))
    _write_csv(path, ("method", "median", "q1", "q3", "whisker_lo", "whisker_hi", "n_fliers",
                      "fliers"), rows)


def write_experiment_outputs(out_dir, report: ExperimentReport) -> None:
    """Write ``report.json``, ``replicates.csv`` and ``boxplot.csv`` into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(experiment_report_to_dict(report), out_dir / "report.json")
    write_replicates_csv(out_dir / "replicates.csv", report)
    write_boxplot_csv(out_dir / "boxplot.csv", report)


# ---------------------------------------------------------------------------
# JSON shapes
# ---------------------------------------------------------------------------

def _fields(record, *drop: str) -> dict:
    """The dataclass fields of ``record`` in declaration order, less ``drop``.

    A float NaN is written as ``None`` (JSON null, an empty CSV cell); the
    caller replaces any value that is itself a record.
    """
    out = {}
    for f in dataclasses.fields(record):
        if f.name not in drop:
            value = getattr(record, f.name)
            out[f.name] = None if isinstance(value, float) and math.isnan(value) else value
    return out


def detection_result_to_dict(result: DetectionResult,
                             increment_csv_path: str | None = None) -> dict:
    out = _fields(result, "increment")
    if increment_csv_path is not None:
        out["increment_csv_path"] = increment_csv_path
    return out


def cleaning_report_to_dict(report: CleaningReport) -> dict:
    return {
        "removed_indices": list(report.removed_indices),
        "kept_indices": list(report.kept_indices),
        "detector": OUTLIER_DETECTOR,
        "params": {"whisker": report.whisker},
    }


def ingestion_report_to_dict(report: IngestionReport) -> dict:
    return {**_fields(report), "support": _fields(report.support)}


def experiment_report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": _fields(report.config),
        "summaries": {
            method: _fields(s, "method") for method, s in sorted(report.summaries.items())
        },
        "replicates": [_fields(r) for r in report.records],
    }


def simulate_sidecar_to_dict(k_star: int, contaminated_indices, seed: int) -> dict:
    return {
        "k_star": k_star,
        "contaminated_indices": [int(i) for i in contaminated_indices],
        "seed": seed,
    }


def dump_json(obj: dict, path=None) -> str:
    """Serialize with a fixed layout; write to ``path`` when given."""
    text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
