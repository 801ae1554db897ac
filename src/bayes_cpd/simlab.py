"""Synthetic distributional sequences, contamination, and experiment harness.

Generators produce the four families of density sequences used throughout
the simulation studies, all seed-deterministic: the sorted-parameter Beta
model with a uniform post-break lift (``sim1``), the strong-change mixture
break (``model1``), the mean-aligned Beta break (``model2``), and the mild
concentration shift (``model3``).  ``run_experiment`` repeats
generate/contaminate/clean/detect cycles with per-replicate derived seeds
and aggregates localization errors and rejection rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cleaning import ClrMedianDistanceDetector, build_detector, clean_and_detect
from .density import (
    DEFAULT_NODE_COUNT,
    DensityFunction,
    Grid,
    beta_pdf_values,
    beta_density,
    integrate,
    zero_avoid,
)
from .engine import (
    CENTERING_GLOBAL,
    DEFAULT_ALPHA,
    DEFAULT_BRIDGE_NODES,
    DEFAULT_MC_SAMPLES,
    DEFAULT_THETA,
    METHOD_L2,
    DetectionResult,
    DistributionalSequence,
    check_settings,
    detect,
)
from .errors import BayesCpdError, StructuralError
from .seeds import derive_seed, parallel_map

GENERATORS = ("sim1", "model1", "model2", "model3")

#: Fixed first moment shared by every density drawn from model2.
MODEL2_MEAN = 0.45


def _mixture(grid: Grid, a1: float, b1: float, a2: float, b2: float) -> DensityFunction:
    v = 0.5 * beta_density(grid, a1, b1).values + 0.5 * beta_density(grid, a2, b2).values
    return DensityFunction(grid, v)


def _validate_break(n: int, k_star: int) -> None:
    if not 1 <= k_star < n:
        raise StructuralError(f"need 1 <= k_star < n, got k_star={k_star}, n={n}")


def gen_sim1(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Sorted-parameter Beta sequence with a +0.8 lift after the break.

    Shape parameters a_i are i.i.d. U(14, 25); the b_i are the ascending
    order statistics of the same draw, which couples the whole sequence.
    The lifted curves are shifted by the global minimum and renormalized
    back into densities before the zero-avoidance floor.
    """
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    a = rng.uniform(14.0, 25.0, n)
    b = np.sort(a)
    raw = np.vstack([beta_pdf_values(grid, a[i], b[i]) for i in range(n)])
    raw[k_star:] += 0.8
    shifted = raw - raw.min()
    return DistributionalSequence.from_densities(
        zero_avoid(DensityFunction(grid, row / integrate(row, grid))) for row in shifted
    )


def gen_model1(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Strong change: Beta(U(10,15), U(10,15)) turning into a bimodal mixture."""
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    rows = [zero_avoid(beta_density(grid, rng.uniform(10, 15), rng.uniform(10, 15)))
            for _ in range(k_star)]
    for _ in range(n - k_star):
        a1, b1 = rng.uniform(25, 40), rng.uniform(15, 20)
        a2, b2 = rng.uniform(2, 4), rng.uniform(4, 6)
        rows.append(zero_avoid(_mixture(grid, a1, b1, a2, b2)))
    return DistributionalSequence.from_densities(rows)


def gen_model2(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Mean-aligned break: Beta(a, (1/c - 1) a) with c = 0.45 on both sides.

    Every underlying random variable has expectation exactly 0.45; only
    the concentration changes (a drops from U(15,25) to U(5,10)), so a
    scalar-mean tracker sees nothing.
    """
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    ratio = 1.0 / MODEL2_MEAN - 1.0
    rows = []
    for i in range(n):
        a = rng.uniform(15, 25) if i < k_star else rng.uniform(5, 10)
        rows.append(zero_avoid(beta_density(grid, a, ratio * a)))
    return DistributionalSequence.from_densities(rows)


def gen_model3(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Mild change: Beta(a, beta a), with beta shifting from U(0.85, 1.0)
    to U(1.0 + q, 1.15 + q) for a single per-sequence offset q ~ U(0.005, 0.015)."""
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.005, 0.015)
    rows = []
    for i in range(n):
        a = rng.uniform(15, 25)
        beta = rng.uniform(0.85, 1.0) if i < k_star else rng.uniform(1.0 + q, 1.15 + q)
        rows.append(zero_avoid(beta_density(grid, a, beta * a)))
    return DistributionalSequence.from_densities(rows)


def gen_outliers(n_outliers: int, seed: int, grid: Grid | None = None) -> list[DensityFunction]:
    """Outlying densities: 30% bimodal mixtures, 70% skewed one-sided Betas."""
    if n_outliers < 0:
        raise StructuralError(f"n_outliers must be >= 0, got {n_outliers}")
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_outliers):
        z = rng.uniform()
        if z > 0.7:
            mu1, mu2 = rng.uniform(0.3, 0.4), rng.uniform(0.6, 0.7)
            a1, a2 = rng.uniform(8, 14), rng.uniform(15, 20)
            f = _mixture(grid, a1, a1 / mu1 - a1, a2, a2 / mu2 - a2)
        else:
            y = rng.uniform()
            a, b = rng.uniform(2, 5), rng.uniform(13, 16)
            c, d = rng.uniform(17, 22), rng.uniform(2, 5)
            f = beta_density(grid, a, b) if y > 0.5 else beta_density(grid, c, d)
        out.append(zero_avoid(f))
    return out


def contaminate(
    seq: DistributionalSequence,
    outliers: list[DensityFunction],
    seed: int,
) -> tuple[DistributionalSequence, tuple[int, ...]]:
    """Replace uniformly chosen distinct positions by the given outliers.

    Positions are sorted ascending and outlier j lands at the j-th chosen
    position.  Returns the new sequence and the 1-based replaced indices.
    """
    if len(outliers) > seq.n:
        raise StructuralError(
            f"cannot place {len(outliers)} outliers into a sequence of {seq.n}"
        )
    if not outliers:
        return seq, ()
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(seq.n, size=len(outliers), replace=False))
    rows = np.vstack([f.values for f in outliers])
    if rows.shape[1] != seq.grid.node_count:
        raise StructuralError("outliers and sequence live on different grids")
    values = seq.values.copy()
    values[positions] = rows
    return (DistributionalSequence._from_checked(seq.grid, values),  # rows already valid
            tuple(int(p) + 1 for p in positions))


def scalar_cusum_statistic(values: np.ndarray) -> float:
    """Max absolute CUSUM of a scalar series, on the same 1/sqrt(n) scale.

    Utility for contrasting density-level detection with what a plain
    scalar-mean tracker sees (e.g. per-density first moments).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        raise StructuralError("scalar CUSUM needs at least 2 values")
    prefix = np.cumsum(values)
    frac = np.arange(1, n + 1) / n
    return float(np.abs((prefix - frac * prefix[-1]) / np.sqrt(n)).max())


_GENERATOR_FNS: dict[str, Callable[..., DistributionalSequence]] = {
    "sim1": gen_sim1,
    "model1": gen_model1,
    "model2": gen_model2,
    "model3": gen_model3,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one repeated-detection experiment."""

    generator: str
    n: int = 100
    k_star: int = 50
    replicates: int = 50
    contamination_count: int = 0
    clean: bool = False
    detector: str = ClrMedianDistanceDetector.name
    alpha: float = DEFAULT_ALPHA
    mc_samples: int = DEFAULT_MC_SAMPLES
    theta: float = DEFAULT_THETA
    seed: int = 0
    grid_nodes: int = DEFAULT_NODE_COUNT
    bridge_nodes: int = DEFAULT_BRIDGE_NODES
    centering: str = CENTERING_GLOBAL
    compare_l2: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.generator not in _GENERATOR_FNS:
            raise StructuralError(
                f"unknown generator {self.generator!r}; choose from {GENERATORS}"
            )
        _validate_break(self.n, self.k_star)
        if not 0 <= self.contamination_count <= self.n:
            raise StructuralError(
                f"contamination_count must be in 0..{self.n}, "
                f"got {self.contamination_count}"
            )
        if self.replicates < 1:
            raise StructuralError("replicates must be >= 1")
        check_settings(self.alpha, self.mc_samples, self.theta, self.bridge_nodes,
                       self.centering)
        if self.clean:
            build_detector(self.detector)  # raises on an unknown name


@dataclass(frozen=True)
class ReplicateRecord:
    """One detection outcome inside an experiment."""

    replicate: int
    method: str
    k_hat: int
    abs_error: int
    p_value: float
    rejected: bool
    cleaned_indices: tuple[int, ...] = ()
    contaminated_indices: tuple[int, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class MethodSummary:
    """Aggregate localization/rejection statistics for one method."""

    method: str
    count: int
    median_abs_error: float
    q1_abs_error: float
    q3_abs_error: float
    rejection_rate: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[ReplicateRecord, ...]
    summaries: dict[str, MethodSummary] = field(default_factory=dict)

    def records_for(self, method: str) -> list[ReplicateRecord]:
        return [r for r in self.records if r.method == method and r.error is None]


def summarize_records(records) -> dict[str, MethodSummary]:
    """Per-method statistics; the ``"error"`` summary counts errored replicates."""
    out: dict[str, MethodSummary] = {}
    for method in sorted({r.method for r in records}):
        rows = [r for r in records if r.method == method]
        ok = [r for r in rows if r.error is None]
        if not ok:
            out[method] = MethodSummary(method, len(rows), float("nan"), float("nan"),
                                        float("nan"), float("nan"))
            continue
        errs = np.array([r.abs_error for r in ok], dtype=np.float64)
        out[method] = MethodSummary(
            method=method,
            count=len(ok),
            median_abs_error=float(np.median(errs)),
            q1_abs_error=float(np.percentile(errs, 25)),
            q3_abs_error=float(np.percentile(errs, 75)),
            rejection_rate=float(np.mean([r.rejected for r in ok])),
        )
    return out


def _run_replicate(config: ExperimentConfig, r: int, grid: Grid) -> list[ReplicateRecord]:
    rep_seed = derive_seed(config.seed, r)
    data_seed = derive_seed(rep_seed, 0)
    mc_seed = derive_seed(rep_seed, 1)
    contamination_seed = derive_seed(rep_seed, 2)
    outlier_seed = derive_seed(rep_seed, 3)

    generate = _GENERATOR_FNS[config.generator]
    seq = generate(config.n, config.k_star, data_seed, grid)
    truth: tuple[int, ...] = ()
    if config.contamination_count > 0:
        outliers = gen_outliers(config.contamination_count, outlier_seed, grid)
        seq, truth = contaminate(seq, outliers, contamination_seed)

    detect_kwargs = dict(
        alpha=config.alpha,
        mc_samples=config.mc_samples,
        theta=config.theta,
        seed=mc_seed,
        centering=config.centering,
        bridge_nodes=config.bridge_nodes,
    )

    records = []

    def record(result: DetectionResult, cleaned: tuple[int, ...] = ()) -> None:
        records.append(ReplicateRecord(
            replicate=r,
            method=result.method,
            k_hat=result.k_hat,
            abs_error=abs(result.k_hat - config.k_star),
            p_value=result.p_value,
            rejected=result.reject_null,
            cleaned_indices=cleaned,
            contaminated_indices=truth,
        ))

    try:
        if config.clean:
            detector = build_detector(config.detector)
            report, result = clean_and_detect(seq, detector, **detect_kwargs)
            record(result, cleaned=report.removed_indices)
        else:
            record(detect(seq, **detect_kwargs))
        if config.compare_l2:
            record(detect(seq, method=METHOD_L2, **detect_kwargs))
    except BayesCpdError as exc:  # input-level failures are recorded, not fatal
        records.append(ReplicateRecord(
            replicate=r, method="error", k_hat=0, abs_error=0,
            p_value=float("nan"), rejected=False,
            contaminated_indices=truth, error=f"{type(exc).__name__}: {exc}",
        ))
    return records


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured replicates and aggregate their outcomes.

    Replicate r depends only on (config.seed, r); replicates may execute
    in parallel and are reported in replicate order either way.  The
    raw-L2 comparison arm always sees the uncleaned (possibly
    contaminated) sequence.
    """
    grid = Grid(config.grid_nodes)
    per_rep = parallel_map(
        lambda r: _run_replicate(config, r, grid),
        range(config.replicates),
        config.threads,
    )
    records = tuple(rec for batch in per_rep for rec in batch)
    return ExperimentReport(
        config=config,
        records=records,
        summaries=summarize_records(records),
    )
