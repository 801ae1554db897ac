"""Command-line surface: detect, simulate, ingest, experiment, clean.

Option precedence is fixed: built-in defaults, then a ``--config`` file of
flat ``key = value`` lines, then explicit command-line flags.  Exit codes
encode the statistical decision for ``detect``: 0 = change-point found
(reject), 1 = no change-point (fail to reject), 2 = usage or file-format
error, 3 = degenerate input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io as bio
from .cleaning import DETECTOR_NAMES, build_detector, clean, clean_and_detect
from .engine import (
    CENTERING_GLOBAL,
    CENTERING_SEGMENTED,
    METHOD_BAYES,
    METHODS,
    DistributionalSequence,
    cusum_profile,
    detect,
)
from .errors import BayesCpdError, CsvFormatError, DegenerateInputError, StructuralError
from .ingestion import IngestConfig, build_sequence
from .simlab import GENERATORS, ExperimentConfig, _GENERATOR_FNS, contaminate, gen_outliers, run_experiment
from .density import Grid
from .seeds import derive_seed, resolve_threads

EXIT_REJECT = 0
EXIT_NO_REJECT = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


@dataclass(frozen=True)
class Opt:
    kind: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None


def _opt_help(opt: Opt) -> str:
    if "(default" in opt.help:
        return opt.help
    default = "none" if opt.default is None else opt.default
    return f"{opt.help} (default: {default})"


_DETECT_OPTS: dict[str, Opt] = {
    "alpha": Opt(float, 0.05, "significance level"),
    "mc_samples": Opt(int, 2000, "Monte Carlo samples of the limiting distribution"),
    "theta": Opt(float, 0.95, "cumulative eigenvalue share kept in the truncation"),
    "seed": Opt(int, 0, "RNG seed"),
    "bridge_nodes": Opt(int, 1001, "grid nodes per simulated Brownian bridge"),
    "centering": Opt(str, CENTERING_GLOBAL, "residual centering mode",
                     (CENTERING_GLOBAL, CENTERING_SEGMENTED)),
    "method": Opt(str, METHOD_BAYES, "detection method", METHODS),
    "clean": Opt(bool, False, "remove distributional outliers before detection"),
    "detector": Opt(str, "clr-median-distance", "distributional outlier detector",
                    DETECTOR_NAMES),
    "whisker": Opt(float, 1.5, "boxplot whisker for the outlier detector"),
    "threads": Opt(int, None, "worker threads, 0 = all cores (default: BAYES_CPD_THREADS or 1)"),
    "out": Opt(str, None, "write the result JSON here instead of stdout"),
    "profile_csv": Opt(str, None,
                   "also write the CUSUM profile CSV of the input sequence here"),
    "increment_csv": Opt(str, None,
                         "write the estimated mean increment density CSV here"),
    "cleaning_report": Opt(str, None, "write the cleaning report JSON here"),
}

_SIMULATE_OPTS: dict[str, Opt] = {
    "generator": Opt(str, None, "data-generating model", GENERATORS),
    "n": Opt(int, 100, "sequence length"),
    "kstar": Opt(int, 50, "true change-point"),
    "seed": Opt(int, 0, "RNG seed"),
    "grid_nodes": Opt(int, 512, "density grid nodes"),
    "contaminate": Opt(int, 0, "number of outlying densities to inject"),
    "out": Opt(str, None, "output density CSV path"),
    "sidecar": Opt(str, None, "ground-truth sidecar JSON path (default: OUT.meta.json)"),
}

_INGEST_OPTS: dict[str, Opt] = {
    "window_seconds": Opt(float, 86400.0, "segment window length in seconds"),
    "timestamp_format": Opt(str, "iso", "timestamp column format", ("iso", "epoch")),
    "whisker": Opt(float, 1.5, "scalar boxplot whisker"),
    "margin": Opt(float, 0.05, "support margin fraction"),
    "grid_nodes": Opt(int, 512, "density grid nodes"),
    "bandwidth": Opt(str, "auto", "KDE bandwidth, a number or 'auto' (Silverman)"),
    "min_count": Opt(int, 30, "minimum samples per retained segment"),
    "support": Opt(str, None, "externally estimated support as LOW:HIGH"),
    "threads": Opt(int, None, "worker threads, 0 = all cores (default: BAYES_CPD_THREADS or 1)"),
    "out": Opt(str, None, "output density CSV path"),
    "report": Opt(str, None, "write the ingestion report JSON here instead of stdout"),
}

_EXPERIMENT_OPTS: dict[str, Opt] = {
    "generator": Opt(str, None, "data-generating model", GENERATORS),
    "n": Opt(int, 100, "sequence length"),
    "k_star": Opt(int, 50, "true change-point"),
    "replicates": Opt(int, 50, "number of replicates"),
    "contamination_count": Opt(int, 0, "outlying densities injected per replicate"),
    "clean": Opt(bool, False, "clean before detection"),
    "detector": Opt(str, "clr-median-distance", "distributional outlier detector",
                    DETECTOR_NAMES),
    "alpha": Opt(float, 0.05, "significance level"),
    "mc_samples": Opt(int, 2000, "Monte Carlo samples"),
    "theta": Opt(float, 0.95, "truncation threshold"),
    "seed": Opt(int, 0, "RNG seed"),
    "grid_nodes": Opt(int, 512, "density grid nodes"),
    "bridge_nodes": Opt(int, 1001, "Brownian bridge grid nodes"),
    "centering": Opt(str, CENTERING_GLOBAL, "residual centering mode",
                     (CENTERING_GLOBAL, CENTERING_SEGMENTED)),
    "compare_l2": Opt(bool, False, "also run the raw-L2 competitor"),
    "threads": Opt(int, None, "worker threads, 0 = all cores (default: BAYES_CPD_THREADS or 1)"),
    "out_dir": Opt(str, None, "directory for report JSON and CSVs"),
}

_CLEAN_OPTS: dict[str, Opt] = {
    "detector": Opt(str, "clr-median-distance", "distributional outlier detector",
                    DETECTOR_NAMES),
    "whisker": Opt(float, 1.5, "boxplot whisker for the outlier detector"),
    "out": Opt(str, None, "output cleaned density CSV path"),
    "report": Opt(str, None, "write the cleaning report JSON here instead of stdout"),
}


def _add_options(parser: argparse.ArgumentParser, opts: dict[str, Opt]) -> None:
    parser.add_argument("--config", help="flat key = value config file", default=None)
    for name, opt in opts.items():
        flag = "--" + name.replace("_", "-")
        if opt.kind is bool:
            parser.add_argument(flag, dest=name, action="store_const", const=True,
                                default=None, help=_opt_help(opt))
        else:
            parser.add_argument(flag, dest=name, type=opt.kind, default=None,
                                choices=opt.choices, help=_opt_help(opt))


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StructuralError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, opt: Opt, raw: str):
    if opt.kind is bool:
        lowered = raw.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise StructuralError(f"config key {name!r}: not a boolean: {raw!r}")
    try:
        value = opt.kind(raw)
    except ValueError:
        raise StructuralError(
            f"config key {name!r}: cannot parse {raw!r} as {opt.kind.__name__}"
        ) from None
    if opt.choices is not None and value not in opt.choices:
        raise StructuralError(
            f"config key {name!r}: {value!r} not in {opt.choices}"
        )
    return value


def _resolve(args: argparse.Namespace, opts: dict[str, Opt]) -> dict:
    config: dict[str, str] = {}
    if args.config is not None:
        config = _parse_config_file(args.config)
        for key in config:
            if key not in opts:
                raise StructuralError(f"unknown config key: {key!r}")
    merged = {}
    for name, opt in opts.items():
        cli_value = getattr(args, name)
        if cli_value is not None:
            merged[name] = cli_value
        elif name in config:
            merged[name] = _coerce(name, opt, config[name])
        else:
            merged[name] = opt.default
    return merged


def _emit_json(obj: dict, path: str | None) -> None:
    text = bio.dump_json(obj, path)
    if path is None:
        sys.stdout.write(text)


def _read_sequence(path: str) -> DistributionalSequence:
    grid, values = bio.read_density_csv(path)
    return DistributionalSequence._from_checked(grid, values)  # rows validated by io


def _cmd_detect(args: argparse.Namespace) -> int:
    opts = _resolve(args, _DETECT_OPTS)
    seq = _read_sequence(args.density_csv)
    threads = resolve_threads(opts["threads"])
    detect_kwargs = dict(
        alpha=opts["alpha"], mc_samples=opts["mc_samples"], theta=opts["theta"],
        seed=opts["seed"], method=opts["method"], centering=opts["centering"],
        bridge_nodes=opts["bridge_nodes"], threads=threads,
    )
    cleaning_report = None
    if opts["clean"]:
        if opts["method"] != METHOD_BAYES:
            raise StructuralError("--clean is only available with the bayes-clr method")
        detector = build_detector(opts["detector"], opts["whisker"])
        cleaning_report, result = clean_and_detect(seq, detector, **detect_kwargs)
    else:
        result = detect(seq, **detect_kwargs)

    if opts["profile_csv"] is not None:
        bio.write_profile_csv(opts["profile_csv"], cusum_profile(seq, opts["method"]))
    increment_path = None
    if opts["increment_csv"] is not None and result.increment is not None:
        increment_path = opts["increment_csv"]
        bio.write_density_csv(increment_path, seq.grid, result.increment.values[None, :])
    if cleaning_report is not None and opts["cleaning_report"] is not None:
        bio.dump_json(bio.cleaning_report_to_dict(cleaning_report), opts["cleaning_report"])

    # A degenerate *result* (zero profile / zero covariance) is still a valid
    # non-rejection; exit 3 is reserved for input the pipeline cannot analyze.
    _emit_json(bio.detection_result_to_dict(result, increment_path), opts["out"])
    return EXIT_REJECT if result.reject_null else EXIT_NO_REJECT


def _cmd_simulate(args: argparse.Namespace) -> int:
    opts = _resolve(args, _SIMULATE_OPTS)
    if opts["generator"] is None:
        raise StructuralError("simulate needs --generator")
    if opts["out"] is None:
        raise StructuralError("simulate needs --out")
    grid = Grid(opts["grid_nodes"])
    generate = _GENERATOR_FNS[opts["generator"]]
    seq = generate(opts["n"], opts["kstar"], derive_seed(opts["seed"], 0), grid)
    contaminated: tuple[int, ...] = ()
    if opts["contaminate"] > 0:
        outliers = gen_outliers(opts["contaminate"], derive_seed(opts["seed"], 3), grid)
        seq, contaminated = contaminate(seq, outliers, derive_seed(opts["seed"], 2))
    bio.write_density_csv(opts["out"], grid, seq.values)
    sidecar = opts["sidecar"] or (opts["out"] + ".meta.json")
    bio.dump_json(
        bio.simulate_sidecar_to_dict(opts["kstar"], contaminated, opts["seed"]),
        sidecar,
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    opts = _resolve(args, _INGEST_OPTS)
    if opts["out"] is None:
        raise StructuralError("ingest needs --out")
    bandwidth = None if opts["bandwidth"] == "auto" else float(opts["bandwidth"])
    support = None
    if opts["support"] is not None:
        try:
            lo, hi = (float(part) for part in opts["support"].split(":"))
        except ValueError:
            raise StructuralError(
                f"--support must look like LOW:HIGH, got {opts['support']!r}"
            ) from None
        support = (lo, hi)
    series = bio.read_raw_series_csv(args.raw_csv, opts["timestamp_format"])
    config = IngestConfig(
        window_seconds=opts["window_seconds"],
        whisker=opts["whisker"],
        margin_fraction=opts["margin"],
        grid_nodes=opts["grid_nodes"],
        bandwidth=bandwidth,
        min_count=opts["min_count"],
        support=support,
        threads=resolve_threads(opts["threads"]),
    )
    seq, report = build_sequence(series, config)
    bio.write_density_csv(opts["out"], seq.grid, seq.values)
    _emit_json(bio.ingestion_report_to_dict(report), opts["report"])
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    opts = _resolve(args, _EXPERIMENT_OPTS)
    if opts["generator"] is None:
        raise StructuralError("experiment needs a generator (flag or config key)")
    if opts["out_dir"] is None:
        raise StructuralError("experiment needs --out-dir")
    threads = resolve_threads(opts["threads"])
    config = ExperimentConfig(
        generator=opts["generator"], n=opts["n"], k_star=opts["k_star"],
        replicates=opts["replicates"],
        contamination_count=opts["contamination_count"],
        clean=opts["clean"], detector=opts["detector"], alpha=opts["alpha"],
        mc_samples=opts["mc_samples"], theta=opts["theta"], seed=opts["seed"],
        grid_nodes=opts["grid_nodes"], bridge_nodes=opts["bridge_nodes"],
        centering=opts["centering"], compare_l2=opts["compare_l2"],
        threads=threads,
    )
    report = run_experiment(config)
    if "error" in report.summaries:
        print(f"{report.summaries['error'].count} of {config.replicates} replicates errored",
              file=sys.stderr)
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    bio.dump_json(bio.experiment_report_to_dict(report), out_dir / "report.json")
    bio.write_replicates_csv(out_dir / "replicates.csv", report)
    bio.write_boxplot_csv(out_dir / "boxplot.csv", report)
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    opts = _resolve(args, _CLEAN_OPTS)
    if opts["out"] is None:
        raise StructuralError("clean needs --out")
    seq = _read_sequence(args.density_csv)
    report = clean(seq, build_detector(opts["detector"], opts["whisker"]))
    bio.write_density_csv(opts["out"], seq.grid,
                          seq.subsequence(report.kept_indices).values)
    _emit_json(bio.cleaning_report_to_dict(report), opts["report"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayes-cpd",
        description="Change-point detection for density-valued sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect a mean break in a density CSV")
    p.add_argument("density_csv", help="density CSV (grid row + one row per density)")
    _add_options(p, _DETECT_OPTS)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("simulate", help="generate a synthetic density CSV")
    _add_options(p, _SIMULATE_OPTS)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("ingest", help="turn a raw timestamp,value CSV into densities")
    p.add_argument("raw_csv", help="raw series CSV with header timestamp,value")
    _add_options(p, _INGEST_OPTS)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("experiment", help="run a repeated-detection experiment")
    _add_options(p, _EXPERIMENT_OPTS)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("clean", help="remove outlying densities from a density CSV")
    p.add_argument("density_csv", help="density CSV (grid row + one row per density)")
    _add_options(p, _CLEAN_OPTS)
    p.set_defaults(fn=_cmd_clean)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (StructuralError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BayesCpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
