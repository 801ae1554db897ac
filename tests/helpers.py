"""Shared constructors for test densities and sequences."""

from __future__ import annotations

import numpy as np
from scipy.special import zeta

from bayes_cpd import (
    ClrFunction,
    DensityFunction,
    DistributionalSequence,
    Grid,
    beta_density,
    clr,
    clr_inv,
    zero_avoid,
)
from bayes_cpd.cleaning import boxplot_keep_mask
from bayes_cpd.density import normalize_rows, zero_avoid_rows
from bayes_cpd.engine import EIGENVALUE_CLIP_RATIO
from bayes_cpd.errors import DegenerateInputError, StructuralError
from bayes_cpd.ingestion import (
    IngestConfig,
    IngestionReport,
    RawSeries,
    estimate_support,
    kde,
    silverman_bandwidth,
)
from bayes_cpd.seeds import parallel_map


def uniform_density(grid: Grid) -> DensityFunction:
    ones = np.ones(grid.node_count)
    return DensityFunction(grid, ones / float(grid.weights @ ones))


def random_beta(grid: Grid, rng: np.random.Generator,
                lo: float = 2.0, hi: float = 30.0) -> DensityFunction:
    return zero_avoid(beta_density(grid, rng.uniform(lo, hi), rng.uniform(lo, hi)))


def random_mixture(grid: Grid, rng: np.random.Generator) -> DensityFunction:
    v = 0.5 * beta_density(grid, rng.uniform(5, 30), rng.uniform(5, 30)).values \
        + 0.5 * beta_density(grid, rng.uniform(2, 10), rng.uniform(2, 10)).values
    return zero_avoid(DensityFunction(grid, v))


def random_density(grid: Grid, rng: np.random.Generator) -> DensityFunction:
    if rng.uniform() < 0.5:
        return random_beta(grid, rng)
    return random_mixture(grid, rng)


def random_sequence(grid: Grid, rng: np.random.Generator, n: int) -> DistributionalSequence:
    return DistributionalSequence.from_densities(random_density(grid, rng) for _ in range(n))


def constant_sequence(grid: Grid, n: int, a: float = 7.0, b: float = 9.0) -> DistributionalSequence:
    f = zero_avoid(beta_density(grid, a, b))
    return DistributionalSequence.from_densities((f,) * n)


def two_segment_sequence(grid: Grid, n_pre: int, n_post: int,
                         pre=(12.0, 12.0), post=(6.0, 14.0)) -> DistributionalSequence:
    f = zero_avoid(beta_density(grid, *pre))
    g = zero_avoid(beta_density(grid, *post))
    return DistributionalSequence.from_densities((f,) * n_pre + (g,) * n_post)


def exact_reflected_kde(values, grid: Grid, bandwidth: float) -> DensityFunction:
    """Reference for ``kde``: the Gaussian kernel summed over every sample
    and its mirror images across 0 and 1, evaluated at each grid node.

    Costs O(nodes x samples x 3); samples go in blocks to bound memory.
    """
    values = np.asarray(values, dtype=np.float64)
    nodes = grid.nodes[:, None]
    total = np.zeros(grid.node_count)
    for start in range(0, values.size, 4096):
        block = values[start:start + 4096][None, :]
        for mirrored in (block, -block, 2.0 - block):
            z = (nodes - mirrored) / bandwidth
            total += np.exp(-0.5 * z * z).sum(axis=1)
    total /= values.size * bandwidth * np.sqrt(2.0 * np.pi)
    return DensityFunction(grid, zero_avoid_rows(normalize_rows(grid, total)))


def b_mean(densities) -> DensityFunction:
    """Bayes-space sample mean, evaluated in the clr domain (inverse clr of
    the mean clr row) so long perturbation chains cannot underflow."""
    densities = list(densities)
    if not densities:
        raise StructuralError("cannot average an empty sequence of densities")
    grid = densities[0].grid
    mean_clr = np.vstack([clr(f).values for f in densities]).mean(axis=0)
    return clr_inv(ClrFunction(grid, mean_clr - float(grid.weights @ mean_clr)))


def scalar_cusum_statistic(values) -> float:
    """Max absolute CUSUM of a scalar series on the 1/sqrt(n) scale: what a
    plain scalar-mean tracker (e.g. of first moments) sees."""
    values = np.asarray(values, dtype=np.float64)
    prefix = np.cumsum(values)
    frac = np.arange(1, values.size + 1) / values.size
    return float(np.abs((prefix - frac * prefix[-1]) / np.sqrt(values.size)).max())


def reference_simulate_chunk(lambdas: np.ndarray, count: int, bridge_nodes: int,
                             chunk_seed: int) -> np.ndarray:
    """Reference for ``engine._simulate_chunk``: one (count, L, steps) draw,
    reduced whole, with the continuity-corrected maximum of each sample.

    On u = lambda / max(lambda), a sample is max(lambda) times
    (sqrt(S) + 0.5826 sigma sqrt(dt))^2 at the node of its largest
    S = sum_l u_l B_l^2, where sigma^2 = sum_l u_l^2 B_l^2 / S there (0 if
    S = 0).  Its temporaries grow as count x L x steps doubles."""
    rng = np.random.default_rng(chunk_seed)
    steps = bridge_nodes - 1
    dt = 1.0 / steps
    t = np.arange(1, bridge_nodes) * dt
    incr = rng.standard_normal((count, lambdas.size, steps)) * np.sqrt(dt)
    walk = np.cumsum(incr, axis=2)
    bridge = walk - t[None, None, :] * walk[:, :, -1:]
    squared = bridge * bridge
    scale = lambdas.max()
    units = lambdas / scale if scale > 0 else lambdas
    weighted = np.einsum("l,klj->kj", units, squared)
    node = np.argmax(weighted, axis=1)
    top = np.take_along_axis(weighted, node[:, None], axis=1)[:, 0]
    at_node = np.take_along_axis(squared, node[:, None, None], axis=2)[:, :, 0]
    local = np.zeros(count)
    for l, u_sq in enumerate(units * units):
        local += u_sq * at_node[:, l]
    var = np.zeros(count)
    var[top > 0] = local[top > 0] / top[top > 0]
    shift = -zeta(0.5) / np.sqrt(2.0 * np.pi)
    return scale * (np.sqrt(top) + shift * np.sqrt(var) * np.sqrt(dt)) ** 2


def dense_covariance_eigen(res: np.ndarray, weights: np.ndarray,
                           theta: float) -> tuple[np.ndarray, int]:
    """Reference for ``engine._covariance_eigen_from_matrix``: the full m x m
    problem W^(1/2) C W^(1/2) solved by ``eigh``, with the same clip and
    truncation rules.  Returns (clipped spectrum of length m, truncation)."""
    cov = (res.T @ res) / res.shape[0]
    sqrt_w = np.sqrt(weights)
    evals = np.linalg.eigh(cov * np.outer(sqrt_w, sqrt_w))[0][::-1]
    leading = float(evals[0])
    if leading <= 0.0:
        return np.zeros_like(evals), 0
    clipped = np.where(evals < EIGENVALUE_CLIP_RATIO * leading, 0.0, evals)
    cumulative = np.cumsum(clipped) / clipped.sum()
    truncation = int(np.searchsorted(cumulative, theta)) + 1
    return clipped, min(truncation, int(np.count_nonzero(clipped)))


def reference_build_sequence(series: RawSeries, config: IngestConfig | None = None
                             ) -> tuple[DistributionalSequence, IngestionReport]:
    """Reference for ``ingestion.build_sequence``: the filtered series is
    copied and normalized whole, split with one ``searchsorted`` over every
    window id from 0 to the last, and every bandwidth is taken before any
    KDE.  It holds about 42 B per sample beyond the series."""
    config = config or IngestConfig()
    grid = Grid(config.grid_nodes)

    keep = boxplot_keep_mask(series.values, config.whisker)
    values = series.values[keep]
    support = config.support or estimate_support(values, config.margin_fraction)
    timestamps = series.timestamps[keep]
    unit = np.clip((values - support.lower) / (support.upper - support.lower), 0.0, 1.0)

    window_seconds, min_count = config.window_seconds, config.min_count
    if not window_seconds > 0:
        raise StructuralError(f"window must be positive, got {window_seconds}")
    if min_count < 1:
        raise StructuralError(f"min_count must be >= 1, got {min_count}")
    window_ids = np.floor((timestamps - timestamps[0]) / window_seconds)
    if not window_ids[-1] < 2.0 ** 63:
        raise StructuralError(f"window of {window_seconds} s gives more windows than int64 counts")
    window_ids = window_ids.astype(np.int64)
    bounds = np.searchsorted(window_ids, np.arange(window_ids[-1] + 2))
    segments, indices, dropped = [], [], []
    for j in range(int(window_ids[-1]) + 1):
        window = unit[bounds[j]:bounds[j + 1]]
        if window.size >= min_count:
            segments.append(window)
            indices.append(j)
        else:
            dropped.append((j, int(window.size)))
    if len(segments) < 4:
        raise DegenerateInputError(f"only {len(segments)} usable segments; need at least 4")

    single = [j for j, v in zip(indices, segments) if v.size < 2]
    if config.bandwidth is None and single:
        raise StructuralError(f"window {single[0]} holds 1 sample, too few for the automatic "
                              "bandwidth; raise min_count to 2 or give a fixed bandwidth")
    bandwidths = [config.bandwidth if config.bandwidth is not None else silverman_bandwidth(v)
                  for v in segments]
    rows = np.empty((len(segments), grid.node_count))

    def fill(i: int) -> None:
        rows[i] = kde(segments[i], grid, bandwidths[i]).values

    parallel_map(fill, range(len(segments)), config.threads)
    report = IngestionReport(
        segments_total=len(segments) + len(dropped),
        segments_dropped=dropped,
        scalar_outliers_removed=int(np.count_nonzero(~keep)),
        clamped_values=int(np.count_nonzero((values < support.lower) | (values > support.upper))),
        support=support,
        bandwidth_per_segment=[float(b) for b in bandwidths],
    )
    return DistributionalSequence(grid, rows), report
