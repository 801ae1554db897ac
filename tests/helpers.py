"""Shared constructors for test densities and sequences."""

from __future__ import annotations

import numpy as np

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
from bayes_cpd.density import normalize_rows, zero_avoid_rows
from bayes_cpd.errors import StructuralError


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
