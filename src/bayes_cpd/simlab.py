"""Synthetic distributional sequences, contamination, and experiment harness.

Generators produce the four families of density sequences used throughout
the simulation studies, all seed-deterministic: the sorted-parameter Beta
model with a uniform post-break lift (``sim1``), the strong-change mixture
break (``model1``), the mean-aligned Beta break (``model2``), and the mild
concentration shift (``model3``).  ``run_experiment`` repeats
generate/contaminate/clean/detect cycles with per-replicate derived seeds
and aggregates localization errors and rejection rates.

A break at ``k_star = n`` leaves the post-break block empty: every density
comes from the pre-break law, so the sequence has no change and an
experiment's rejection rate estimates the size of the test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cleaning import clean
from .density import (
    DEFAULT_NODE_COUNT,
    Grid,
    beta_pdf_values,
    normalize_rows,
    zero_avoid_rows,
)
from .engine import (
    DEFAULT_ALPHA,
    DEFAULT_BRIDGE_NODES,
    DEFAULT_MC_SAMPLES,
    DEFAULT_THETA,
    METHOD_BAYES,
    METHOD_L2,
    DistributionalSequence,
    check_settings,
    _detect_statistic,
    _simulate_limit_samples,
    _with_p_value,
)
from .errors import BayesCpdError, StructuralError
from .seeds import derive_seed, parallel_map

#: Fixed first moment shared by every density drawn from model2.
MODEL2_MEAN = 0.45


def _validate_break(n: int, k_star: int) -> None:
    if not (n >= 4 and 1 <= k_star <= n):
        raise StructuralError(f"need n >= 4 and 1 <= k_star <= n, got k_star={k_star}, n={n}")


def _beta_rows(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit-integral Beta(a_i, b_i) rows, one per shape pair."""
    return normalize_rows(grid, beta_pdf_values(grid, a, b))


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
    raw = beta_pdf_values(grid, a, np.sort(a))
    raw[k_star:] += 0.8
    shifted = raw - raw.min()
    return DistributionalSequence(grid, zero_avoid_rows(normalize_rows(grid, shifted)))


def gen_model1(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Strong change: Beta(U(10,15), U(10,15)) turning into the equal mixture of
    Beta(U(25,40), U(15,20)) and Beta(U(2,4), U(4,6))."""
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    pre = rng.uniform(10, 15, (k_star, 2))
    a1, b1, a2, b2 = rng.uniform([25, 15, 2, 4], [40, 20, 4, 6], (n - k_star, 4)).T
    rows = np.vstack([
        _beta_rows(grid, pre[:, 0], pre[:, 1]),
        0.5 * _beta_rows(grid, a1, b1) + 0.5 * _beta_rows(grid, a2, b2),
    ])
    return DistributionalSequence(grid, zero_avoid_rows(rows))


def gen_model2(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Mean-aligned break: Beta(a, (1/c - 1) a) with c = 0.45 on both sides.

    Every underlying random variable has expectation exactly 0.45; only
    the concentration changes (a drops from U(15,25) to U(5,10)), so a
    scalar-mean tracker sees nothing.
    """
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    pre = np.arange(n) < k_star
    a = rng.uniform(np.where(pre, 15, 5), np.where(pre, 25, 10))
    rows = _beta_rows(grid, a, (1.0 / MODEL2_MEAN - 1.0) * a)
    return DistributionalSequence(grid, zero_avoid_rows(rows))


def gen_model3(n: int, k_star: int, seed: int, grid: Grid | None = None) -> DistributionalSequence:
    """Mild change: Beta(a, beta a), with beta shifting from U(0.85, 1.0)
    to U(1.0 + q, 1.15 + q) for a single per-sequence offset q ~ U(0.005, 0.015)."""
    _validate_break(n, k_star)
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.005, 0.015)
    pre = (np.arange(n) < k_star)[:, None]
    low = np.where(pre, [15, 0.85], [15, 1.0 + q])
    high = np.where(pre, [25, 1.0], [25, 1.15 + q])
    a, beta = rng.uniform(low, high).T  # per row: a, then beta
    return DistributionalSequence(grid, zero_avoid_rows(_beta_rows(grid, a, beta * a)))


def gen_outliers(n_outliers: int, seed: int, grid: Grid | None = None) -> np.ndarray:
    """A (n_outliers, m) matrix of outlying densities: 30% equal mixtures of
    two Betas (bimodal), 70% skewed one-sided Betas."""
    if n_outliers < 0:
        raise StructuralError(f"n_outliers must be >= 0, got {n_outliers}")
    grid = grid or Grid()
    rng = np.random.default_rng(seed)
    mixed = np.zeros(n_outliers, dtype=bool)
    shapes = []  # Beta shape pairs in row order; a mixture takes two
    for i in range(n_outliers):
        if rng.uniform() > 0.7:
            mixed[i] = True
            mu1, mu2 = rng.uniform(0.3, 0.4), rng.uniform(0.6, 0.7)
            a1, a2 = rng.uniform(8, 14), rng.uniform(15, 20)
            shapes += [(a1, a1 / mu1 - a1), (a2, a2 / mu2 - a2)]
        else:
            y = rng.uniform()
            a, b = rng.uniform(2, 5), rng.uniform(13, 16)
            c, d = rng.uniform(17, 22), rng.uniform(2, 5)
            shapes.append((a, b) if y > 0.5 else (c, d))
    a, b = np.reshape(shapes, (-1, 2)).T
    betas = _beta_rows(grid, a, b)
    first = np.cumsum(1 + mixed) - (1 + mixed)  # row of each outlier's first Beta
    rows = betas[first]
    rows[mixed] = 0.5 * betas[first[mixed]] + 0.5 * betas[first[mixed] + 1]
    return zero_avoid_rows(rows)


def contaminate(
    seq: DistributionalSequence,
    outliers: np.ndarray,
    seed: int,
) -> tuple[DistributionalSequence, tuple[int, ...]]:
    """Replace uniformly chosen distinct positions by the rows of the
    (k, m) ``outliers`` matrix.

    Positions are sorted ascending and outlier row j lands at the j-th
    chosen position.  Returns the new sequence and the 1-based replaced
    indices.
    """
    outliers = np.asarray(outliers, dtype=np.float64)
    if outliers.ndim != 2 or outliers.shape[1] != seq.grid.node_count:
        raise StructuralError(
            f"outliers must be a (k, {seq.grid.node_count}) matrix, got shape {outliers.shape}"
        )
    if len(outliers) > seq.n:
        raise StructuralError(
            f"cannot place {len(outliers)} outliers into a sequence of {seq.n}"
        )
    if not len(outliers):
        return seq, ()
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(seq.n, size=len(outliers), replace=False))
    values = seq.values.copy()
    values[positions] = outliers
    return DistributionalSequence(seq.grid, values), tuple(int(p) + 1 for p in positions)


_GENERATOR_FNS: dict[str, Callable[..., DistributionalSequence]] = {
    "sim1": gen_sim1,
    "model1": gen_model1,
    "model2": gen_model2,
    "model3": gen_model3,
}
GENERATORS = tuple(_GENERATOR_FNS)


def replicate_sequence(
    generator: str,
    n: int,
    k_star: int,
    contamination_count: int,
    seed: int,
    grid: Grid,
) -> tuple[DistributionalSequence, tuple[int, ...]]:
    """One replicate's data: a generated sequence, then its outliers.

    Sub-seeds 0, 3 and 2 of ``seed`` draw the sequence, the outlying
    densities and their positions; sub-seed 1 is left to the Monte Carlo
    of the replicate's detection.  Returns the sequence and the 1-based
    contaminated indices, which are empty without contamination.
    """
    if contamination_count < 0:
        raise StructuralError(f"contamination count must be >= 0, got {contamination_count}")
    seq = _GENERATOR_FNS[generator](n, k_star, derive_seed(seed, 0), grid)
    if contamination_count == 0:
        return seq, ()
    outliers = gen_outliers(contamination_count, derive_seed(seed, 3), grid)
    return contaminate(seq, outliers, derive_seed(seed, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one repeated-detection experiment.

    ``k_star`` ranges over 1..n; ``k_star = n`` runs a no-change sequence,
    so the rejection rate is the size and ``abs_error`` is ``n - k_hat``.
    """

    generator: str
    n: int = 100
    k_star: int = 50
    replicates: int = 50
    contamination_count: int = 0
    clean: bool = False
    alpha: float = DEFAULT_ALPHA
    mc_samples: int = DEFAULT_MC_SAMPLES
    theta: float = DEFAULT_THETA
    seed: int = 0
    grid_nodes: int = DEFAULT_NODE_COUNT
    bridge_nodes: int = DEFAULT_BRIDGE_NODES
    compare_l2: bool = False

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
        check_settings(self.alpha, self.mc_samples, self.theta, self.bridge_nodes)


@dataclass(frozen=True)
class ReplicateRecord:
    """One detection outcome inside an experiment; ``L`` is the arm's
    retained eigenvalue count.  An error record (method ``"error"``) keeps
    the defaults: k_hat, abs_error and L 0, p_value NaN, not rejected."""

    replicate: int
    method: str
    k_hat: int = 0
    abs_error: int = 0
    p_value: float = float("nan")
    rejected: bool = False
    L: int = 0
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
    """The records of replicate r, one per arm, on one Monte Carlo draw.

    Each arm runs detection up to its Monte Carlo: the Bayes arm on the
    cleaned subsequence when ``clean`` is set, the raw-L2 arm on the
    uncleaned sequence.  The arms that retained eigenvalues then share one
    draw of bridges, so the arm with the larger L gets the samples of a
    standalone detection; a lone arm always does.  An arm can fail only
    before the draw: one that raises a :class:`BayesCpdError` gets an error
    record, prefixed with its method when both arms run, and leaves the
    other arm to draw alone.
    """
    rep_seed = derive_seed(config.seed, r)
    mc_seed = derive_seed(rep_seed, 1)
    seq, truth = replicate_sequence(config.generator, config.n, config.k_star,
                                    config.contamination_count, rep_seed, grid)
    methods = (METHOD_BAYES, METHOD_L2) if config.compare_l2 else (METHOD_BAYES,)
    staged = []  # per arm: its method, cleaning report, and pre-draw result or error
    for method in methods:
        report = None
        try:
            if config.clean and method == METHOD_BAYES:
                report = clean(seq)
            arm_seq = seq if report is None else seq.subsequence(report.kept_indices)
            stat = _detect_statistic(arm_seq, config.theta, method, config.alpha,
                                     config.mc_samples, mc_seed)
        except BayesCpdError as exc:
            stat = exc
        staged.append((method, report, stat))
    eigens = [stat.eigenvalues for _, _, stat in staged
              if not isinstance(stat, BayesCpdError) and stat.L]
    draws = iter(_simulate_limit_samples(eigens, config.mc_samples,
                                         bridge_nodes=config.bridge_nodes, seed=mc_seed)
                 if eigens else ())
    records = []
    for method, report, stat in staged:
        if isinstance(stat, BayesCpdError):  # recorded, not fatal
            prefix = f"{method}: " if config.compare_l2 else ""
            records.append(ReplicateRecord(replicate=r, method="error",
                                           contaminated_indices=truth,
                                           error=f"{prefix}{type(stat).__name__}: {stat}"))
            continue
        result = _with_p_value(stat, next(draws)) if stat.L else stat
        k_hat = result.k_hat if report is None else report.map_position(result.k_hat)
        records.append(ReplicateRecord(
            replicate=r,
            method=method,
            k_hat=k_hat,
            abs_error=abs(k_hat - config.k_star),
            p_value=result.p_value,
            rejected=result.reject_null,
            L=result.L,
            cleaned_indices=() if report is None else report.removed_indices,
            contaminated_indices=truth,
        ))
    return records


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run the configured replicates and aggregate their outcomes.

    Replicate r depends only on (config.seed, r); replicates run on
    ``threads`` workers (0 = every usable CPU) and are reported in
    replicate order either way.  With ``compare_l2`` the raw-L2 arm always
    sees the uncleaned (possibly contaminated) sequence, and shares one
    Monte Carlo draw with the Bayes arm.
    """
    grid = Grid(config.grid_nodes)
    per_rep = parallel_map(
        lambda r: _run_replicate(config, r, grid),
        range(config.replicates),
        threads,
    )
    records = tuple(rec for batch in per_rep for rec in batch)
    return ExperimentReport(
        config=config,
        records=records,
        summaries=summarize_records(records),
    )
