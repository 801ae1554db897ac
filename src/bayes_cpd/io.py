"""File formats: density CSV, raw-series CSV, and the JSON report shapes.

Float cells are written with ``repr``, the shortest round-tripping form,
so identical results serialize to identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as _dt
import json
from pathlib import Path

import numpy as np

from .cleaning import CleaningReport
from .density import Grid, check_density_rows
from .engine import CusumProfile, DetectionResult
from .errors import BayesCpdError, CsvFormatError, StructuralError
from .ingestion import IngestionReport, RawSeries
from .simlab import ExperimentReport

_GRID_REL_TOL = 1e-9

TIMESTAMP_FORMATS = ("iso", "epoch")


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_number(x: float):
    return None if np.isnan(x) else float(x)


# ---------------------------------------------------------------------------
# density CSV: row 1 = grid nodes, following rows = densities in time order
# ---------------------------------------------------------------------------

def write_density_csv(path, grid: Grid, values: np.ndarray) -> None:
    """Write the grid row, then one row per row of the (n, m) ``values``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_fmt(x) for x in grid.nodes)
        for row in values:
            writer.writerow(_fmt(v) for v in row)


def _parse_float_row(row: list[str], line: int) -> np.ndarray:
    try:
        return np.array([float(cell) for cell in row], dtype=np.float64)
    except ValueError as exc:
        raise CsvFormatError(line, f"non-numeric cell ({exc})") from None


def _checked_rows(grid: Grid, rows: list[np.ndarray], lines: list[int]) -> np.ndarray:
    """Validated density matrix; a bad row raises with its file line."""
    try:
        return check_density_rows(grid, np.reshape(rows, (-1, grid.node_count)))
    except BayesCpdError as exc:
        raise CsvFormatError(lines[exc.row - 1], f"invalid {exc}") from None


def _numbered_rows(fh):
    """Yield each non-blank CSV record with the physical line it ends on."""
    reader = csv.reader(fh)
    for row in reader:
        if row:
            yield reader.line_num, row


def read_density_csv(path) -> tuple[Grid, np.ndarray]:
    """Parse a density CSV into its grid and read-only (n, m) value matrix;
    a file holding only its grid row gives n = 0.

    Every problem raises :class:`CsvFormatError` with the line number of
    the first bad line, whether it fails to parse or fails validation.
    Blank lines are skipped but still counted.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(_numbered_rows(fh))
    if not rows:
        raise CsvFormatError(1, "need a grid row")
    grid_line, grid_row = rows[0]
    nodes = _parse_float_row(grid_row, grid_line)
    if nodes.size < 16:
        raise CsvFormatError(grid_line, f"grid needs >= 16 nodes, got {nodes.size}")
    grid = Grid(nodes.size)
    if not np.allclose(nodes, grid.nodes, rtol=0.0, atol=_GRID_REL_TOL):
        raise CsvFormatError(grid_line, "grid row is not a uniform partition of [0, 1]")
    parsed, lines = [], []
    for line, row in rows[1:]:
        try:
            values = _parse_float_row(row, line)
            if values.size != grid.node_count:
                raise CsvFormatError(
                    line, f"expected {grid.node_count} values, got {values.size}"
                )
        except CsvFormatError:
            if parsed:
                _checked_rows(grid, parsed, lines)  # an earlier invalid row comes first
            raise
        parsed.append(values)
        lines.append(line)
    return grid, _checked_rows(grid, parsed, lines)


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


def read_raw_series_csv(path, timestamp_format: str = "iso") -> RawSeries:
    if timestamp_format not in TIMESTAMP_FORMATS:
        raise StructuralError(f"timestamp_format must be iso|epoch, got {timestamp_format!r}")
    timestamps, values = [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = _numbered_rows(fh)
        line, header = next(rows, (1, []))
        if [c.strip().lower() for c in header] != ["timestamp", "value"]:
            raise CsvFormatError(line, 'expected header "timestamp,value"')
        for line, row in rows:
            if len(row) != 2:
                raise CsvFormatError(line, f"expected 2 cells, got {len(row)}")
            timestamps.append(_parse_timestamp(row[0], timestamp_format, line))
            try:
                values.append(float(row[1]))
            except ValueError:
                raise CsvFormatError(line, f"non-numeric value {row[1]!r}") from None
    try:
        return RawSeries(np.array(timestamps), np.array(values))
    except StructuralError as exc:
        raise CsvFormatError(_record_line(path, getattr(exc, "sample", 1)), str(exc)) from None


def _record_line(path, record: int) -> int:
    """Physical line of 1-based data record ``record`` of a raw series CSV,
    or the line after the last record if the file holds fewer.

    Read again on the error path only, so parsing keeps no per-row lines.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for i, (line, _) in enumerate(_numbered_rows(fh)):
            if i == record:
                return line
    return line + 1


def write_raw_series_csv(path, series: RawSeries) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for t, v in zip(series.timestamps, series.values):
            writer.writerow([_fmt(t), _fmt(v)])


# ---------------------------------------------------------------------------
# profile / replicate / boxplot CSVs
# ---------------------------------------------------------------------------

def write_profile_csv(path, profile: CusumProfile) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "norm_sq"])
        for k, value in enumerate(profile.norms_sq, start=1):
            writer.writerow([k, _fmt(value)])


def write_replicates_csv(path, report: ExperimentReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "k_hat", "abs_error", "p_value", "rejected", "method"])
        for rec in report.records:
            if rec.error is not None:
                continue
            writer.writerow([
                rec.replicate, rec.k_hat, rec.abs_error,
                _fmt(rec.p_value), str(rec.rejected).lower(), rec.method,
            ])


def write_boxplot_csv(path, report: ExperimentReport) -> None:
    """Quartiles, whisker ends, and fliers of abs_error per method."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "method", "median", "q1", "q3", "whisker_lo", "whisker_hi",
            "n_fliers", "fliers",
        ])
        for method in sorted(report.summaries):
            errs = np.array(
                [r.abs_error for r in report.records_for(method)], dtype=np.float64
            )
            if errs.size == 0:
                continue
            q1, med, q3 = np.percentile(errs, [25, 50, 75])
            iqr = q3 - q1
            inside = errs[(errs >= q1 - 1.5 * iqr) & (errs <= q3 + 1.5 * iqr)]
            lo, hi = float(inside.min()), float(inside.max())
            fliers = sorted(float(e) for e in errs[(errs < lo) | (errs > hi)])
            writer.writerow([
                method, _fmt(med), _fmt(q1), _fmt(q3), _fmt(lo), _fmt(hi),
                len(fliers), ";".join(_fmt(f) for f in fliers),
            ])


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

def detection_result_to_dict(result: DetectionResult,
                             increment_csv_path: str | None = None) -> dict:
    out = {
        "k_hat": result.k_hat,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "alpha": result.alpha,
        "reject_null": result.reject_null,
        "L": result.L,
        "eigenvalues": list(result.eigenvalues),
        "mc_samples": result.mc_samples,
        "seed": result.seed,
        "centering": result.centering,
        "degenerate": result.degenerate,
        "method": result.method,
    }
    if increment_csv_path is not None:
        out["increment_csv_path"] = increment_csv_path
    return out


def cleaning_report_to_dict(report: CleaningReport) -> dict:
    return {
        "removed_indices": list(report.removed_indices),
        "kept_indices": list(report.kept_indices),
        "detector": report.detector,
        "params": report.params,
    }


def ingestion_report_to_dict(report: IngestionReport) -> dict:
    return {
        "segments_total": report.segments_total,
        "segments_dropped": [list(pair) for pair in report.segments_dropped],
        "scalar_outliers_removed": report.scalar_outliers_removed,
        "clamped_values": report.clamped_values,
        "support": {"lower": report.support.lower, "upper": report.support.upper},
        "bandwidth_per_segment": list(report.bandwidth_per_segment),
    }


def experiment_report_to_dict(report: ExperimentReport) -> dict:
    config = dataclasses.asdict(report.config)
    del config["threads"]  # how a run was scheduled is not part of its result
    return {
        "config": config,
        "summaries": {
            method: {
                "count": s.count,
                "median_abs_error": _json_number(s.median_abs_error),
                "q1_abs_error": _json_number(s.q1_abs_error),
                "q3_abs_error": _json_number(s.q3_abs_error),
                "rejection_rate": _json_number(s.rejection_rate),
            }
            for method, s in sorted(report.summaries.items())
        },
        "replicates": [
            {
                "replicate": r.replicate,
                "method": r.method,
                "k_hat": r.k_hat,
                "abs_error": r.abs_error,
                "p_value": None if np.isnan(r.p_value) else r.p_value,
                "rejected": r.rejected,
                "cleaned_indices": list(r.cleaned_indices),
                "contaminated_indices": list(r.contaminated_indices),
                "error": r.error,
            }
            for r in report.records
        ],
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
