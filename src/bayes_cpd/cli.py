"""Command-line surface: detect, simulate, ingest, experiment, clean.

Option precedence is fixed: the library's defaults, then a ``--config``
file of flat ``key = value`` lines, then explicit command-line flags.  Exit
codes encode the statistical decision for ``detect``: 0 = change-point found
(reject), 1 = no change-point (fail to reject), 2 = usage or file-format
error, 3 = degenerate input.  Every output path a command is given is
checked before any input is read, so a refused path leaves nothing behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import io as bio
from .cleaning import DEFAULT_WHISKER, clean, clean_and_detect
from .density import DEFAULT_NODE_COUNT, Grid
from .engine import (
    CENTERINGS,
    CENTERING_GLOBAL,
    DEFAULT_ALPHA,
    DEFAULT_BRIDGE_NODES,
    DEFAULT_MC_SAMPLES,
    DEFAULT_THETA,
    METHOD_BAYES,
    METHODS,
    DistributionalSequence,
    cusum_profile,
    detect,
)
from .errors import BayesCpdError, DegenerateInputError, StructuralError
from .ingestion import IngestConfig, SupportEstimate, build_sequence
from .simlab import GENERATORS, ExperimentConfig, replicate_sequence, run_experiment
from .seeds import resolve_threads

EXIT_REJECT = 0
EXIT_NO_REJECT = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

_THREADS_HELP = "worker threads, 0 = all cores (default: BAYES_CPD_THREADS or 1)"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append ``(default: X)`` unless the help text already names its default."""

    def _get_help_string(self, action):
        if "(default" in action.help:
            return action.help
        return super()._get_help_string(action)


def _bandwidth(text: str) -> float | None:
    """``--bandwidth``: None for ``auto`` (Silverman per window), else a number."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _support(text: str) -> SupportEstimate:
    """``--support``: the checked support of ``LOW:HIGH``."""
    try:
        lower, upper = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LOW:HIGH, got {text!r}") from None
    try:
        return SupportEstimate(lower, upper)
    except StructuralError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_detection_options(p: argparse.ArgumentParser) -> None:
    """The detector settings ``detect`` and ``experiment`` share."""
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES,
                   help="Monte Carlo samples of the limiting distribution")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA,
                   help="cumulative eigenvalue share kept in the truncation")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--bridge-nodes", type=int, default=DEFAULT_BRIDGE_NODES,
                   help="grid nodes per simulated Brownian bridge")
    p.add_argument("--centering", default=CENTERING_GLOBAL, choices=CENTERINGS,
                   help="residual centering mode")


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


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file of a first parse as flags, in file order.

    A boolean key emits its bare flag when true and nothing when false, so
    a config file can switch a flag on but never off.
    """
    argv = []
    for key, value in _parse_config_file(args.config).items():
        if key not in vars(args) or key == "config":
            raise StructuralError(f"unknown config key: {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            argv.append(f"{flag}={value}")
        elif value.lower() in _TRUE:
            argv.append(flag)
        elif value.lower() not in _FALSE:
            raise StructuralError(f"config key {key!r}: not a boolean: {value!r}")
    return argv


def _emit_json(obj: dict, path: str | None) -> None:
    text = bio.dump_json(obj, path)
    if path is None:
        sys.stdout.write(text)


def _check_outputs(*paths: str | None) -> None:
    """Refuse an output file whose directory is missing or which is a directory."""
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise StructuralError(f"output path is a directory: {path}")
        if not Path(path).parent.is_dir():
            raise StructuralError(f"output directory does not exist: {path}")


def _read_sequence(path: str) -> DistributionalSequence:
    return DistributionalSequence(*bio.read_density_csv(path))


def _cmd_detect(args: argparse.Namespace) -> int:
    _check_outputs(args.out, args.profile_csv, args.increment_csv, args.cleaning_report)
    seq = _read_sequence(args.density_csv)
    detect_kwargs = dict(
        alpha=args.alpha, mc_samples=args.mc_samples, theta=args.theta,
        seed=args.seed, method=args.method, centering=args.centering,
        bridge_nodes=args.bridge_nodes, threads=resolve_threads(args.threads),
    )
    cleaning_report = None
    if args.clean:
        if args.method != METHOD_BAYES:
            raise StructuralError("--clean is only available with the bayes-clr method")
        cleaning_report, result = clean_and_detect(seq, args.whisker, **detect_kwargs)
    else:
        result = detect(seq, **detect_kwargs)

    if args.profile_csv is not None:
        bio.write_profile_csv(args.profile_csv, cusum_profile(seq, args.method))
    increment_path = None
    if args.increment_csv is not None and result.increment is not None:
        increment_path = args.increment_csv
        bio.write_density_csv(increment_path, seq.grid, result.increment.values[None, :])
    if cleaning_report is not None and args.cleaning_report is not None:
        bio.dump_json(bio.cleaning_report_to_dict(cleaning_report), args.cleaning_report)

    # A degenerate *result* (zero profile / zero covariance) is still a valid
    # non-rejection; exit 3 is reserved for input the pipeline cannot analyze.
    _emit_json(bio.detection_result_to_dict(result, increment_path), args.out)
    return EXIT_REJECT if result.reject_null else EXIT_NO_REJECT


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.generator is None:
        raise StructuralError("simulate needs --generator")
    if args.out is None:
        raise StructuralError("simulate needs --out")
    sidecar = args.sidecar or (args.out + ".meta.json")
    _check_outputs(args.out, sidecar)
    grid = Grid(args.grid_nodes)
    seq, contaminated = replicate_sequence(args.generator, args.n, args.kstar,
                                           args.contaminate, args.seed, grid)
    bio.write_density_csv(args.out, grid, seq.values)
    bio.dump_json(bio.simulate_sidecar_to_dict(args.kstar, contaminated, args.seed), sidecar)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.out is None:
        raise StructuralError("ingest needs --out")
    _check_outputs(args.out, args.report)
    series = bio.read_raw_series_csv(args.raw_csv, args.timestamp_format)
    config = IngestConfig(
        window_seconds=args.window_seconds, whisker=args.whisker,
        margin_fraction=args.margin, grid_nodes=args.grid_nodes,
        bandwidth=args.bandwidth,
        min_count=args.min_count, support=args.support,
        threads=resolve_threads(args.threads),
    )
    seq, report = build_sequence(series, config)
    bio.write_density_csv(args.out, seq.grid, seq.values)
    _emit_json(bio.ingestion_report_to_dict(report), args.report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.generator is None:
        raise StructuralError("experiment needs a generator (flag or config key)")
    if args.out_dir is None:
        raise StructuralError("experiment needs --out-dir")
    out_dir = Path(args.out_dir)
    if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
        raise StructuralError(f"output directory cannot be created: {args.out_dir}")
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)}
    config = ExperimentConfig(**{**settings, "threads": resolve_threads(args.threads)})
    report = run_experiment(config)
    errored = {r.replicate for r in report.records if r.error is not None}
    if errored:
        print(f"{len(errored)} of {config.replicates} replicates errored", file=sys.stderr)
    bio.write_experiment_outputs(args.out_dir, report)
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    if args.out is None:
        raise StructuralError("clean needs --out")
    _check_outputs(args.out, args.report)
    seq = _read_sequence(args.density_csv)
    report = clean(seq, args.whisker)
    bio.write_density_csv(args.out, seq.grid,
                          seq.subsequence(report.kept_indices).values)
    _emit_json(bio.cleaning_report_to_dict(report), args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayes-cpd",
        description="Change-point detection for density-valued sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary, formatter_class=_HelpFormatter)
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(fn=fn)
        return p

    density_csv_help = "density CSV (grid row + one row per density)"
    whisker_help = "boxplot whisker for the outlier detector"
    density_out_help = "output density CSV path"

    p = command("detect", _cmd_detect, "detect a mean break in a density CSV")
    p.add_argument("density_csv", help=density_csv_help)
    _add_detection_options(p)
    p.add_argument("--method", default=METHOD_BAYES, choices=METHODS, help="detection method")
    p.add_argument("--clean", action="store_true",
                   help="remove distributional outliers before detection")
    p.add_argument("--whisker", type=float, default=DEFAULT_WHISKER, help=whisker_help)
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--out", help="write the result JSON here instead of stdout")
    p.add_argument("--profile-csv",
                   help="also write the CUSUM profile CSV of the input sequence here")
    p.add_argument("--increment-csv", help="write the estimated mean increment density CSV here")
    p.add_argument("--cleaning-report", help="write the cleaning report JSON here")

    p = command("simulate", _cmd_simulate, "generate a synthetic density CSV")
    p.add_argument("--generator", choices=GENERATORS, help="data-generating model")
    p.add_argument("--n", type=int, default=100, help="sequence length")
    p.add_argument("--kstar", type=int, default=50, help="true change-point")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--grid-nodes", type=int, default=DEFAULT_NODE_COUNT, help="density grid nodes")
    p.add_argument("--contaminate", type=int, default=0,
                   help="number of outlying densities to inject")
    p.add_argument("--out", help=density_out_help)
    p.add_argument("--sidecar", help="ground-truth sidecar JSON path (default: OUT.meta.json)")

    p = command("ingest", _cmd_ingest, "turn a raw timestamp,value CSV into densities")
    p.add_argument("raw_csv", help="raw series CSV with header timestamp,value")
    p.add_argument("--window-seconds", type=float, default=IngestConfig.window_seconds,
                   help="segment window length in seconds")
    p.add_argument("--timestamp-format", default="iso", choices=bio.TIMESTAMP_FORMATS,
                   help="timestamp column format")
    p.add_argument("--whisker", type=float, default=IngestConfig.whisker,
                   help="scalar boxplot whisker")
    p.add_argument("--margin", type=float, default=IngestConfig.margin_fraction,
                   help="support margin fraction")
    p.add_argument("--grid-nodes", type=int, default=IngestConfig.grid_nodes,
                   help="density grid nodes")
    p.add_argument("--bandwidth", type=_bandwidth, default="auto",
                   help="KDE bandwidth, a number or 'auto' (Silverman)")
    p.add_argument("--min-count", type=int, default=IngestConfig.min_count,
                   help="minimum samples per retained segment")
    p.add_argument("--support", type=_support,
                   help="externally estimated support as LOW:HIGH")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--out", help=density_out_help)
    p.add_argument("--report", help="write the ingestion report JSON here instead of stdout")

    p = command("experiment", _cmd_experiment, "run a repeated-detection experiment")
    p.add_argument("--generator", choices=GENERATORS, help="data-generating model")
    p.add_argument("--n", type=int, default=ExperimentConfig.n, help="sequence length")
    p.add_argument("--k-star", type=int, default=ExperimentConfig.k_star,
                   help="true change-point")
    p.add_argument("--replicates", type=int, default=ExperimentConfig.replicates,
                   help="number of replicates")
    p.add_argument("--contamination-count", type=int,
                   default=ExperimentConfig.contamination_count,
                   help="outlying densities injected per replicate")
    p.add_argument("--clean", action="store_true", help="clean before detection")
    p.add_argument("--grid-nodes", type=int, default=ExperimentConfig.grid_nodes,
                   help="density grid nodes")
    _add_detection_options(p)
    p.add_argument("--compare-l2", action="store_true", help="also run the raw-L2 competitor")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("--out-dir", help="directory for report JSON and CSVs")

    p = command("clean", _cmd_clean, "remove outlying densities from a density CSV")
    p.add_argument("density_csv", help=density_csv_help)
    p.add_argument("--whisker", type=float, default=DEFAULT_WHISKER, help=whisker_help)
    p.add_argument("--out", help="output cleaned density CSV path")
    p.add_argument("--report", help="write the cleaning report JSON here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # Config flags go first, so the user's own flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (BayesCpdError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
