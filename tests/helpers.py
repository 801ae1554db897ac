"""Shared constructors for test densities and sequences."""

from __future__ import annotations

import numpy as np

from bayes_cpd import DensityFunction, DistributionalSequence, Grid, beta_density, zero_avoid


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
