"""Functional CUSUM change-point detection for density-valued sequences.

The detection pipeline: transform each density (clr for the Bayes-space
method, identity for the raw-L2 competitor), build the functional CUSUM
profile over candidate split points, locate the break at the profile's
argmax, estimate the covariance operator of the transformed residuals,
simulate the eigenvalue-weighted Brownian-bridge limit of the test
statistic by Monte Carlo, and convert the observed maximum into a p-value.

Both methods run through one :func:`detect` on an (n, m) matrix of
transformed values, so they differ in nothing but the transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .density import ClrFunction, DensityFunction, Grid, check_density_rows, clr_inv, clr_rows
from .errors import DegenerateInputError, NumericError, StructuralError
from .seeds import derive_seed, parallel_map

#: Profile maxima at or below this are treated as an identically-zero CUSUM.
DEGENERATE_STATISTIC_TOL = 1e-12
#: Eigenvalues below this fraction of the leading one are clipped to zero.
EIGENVALUE_CLIP_RATIO = 1e-12

DEFAULT_ALPHA = 0.05
DEFAULT_MC_SAMPLES = 2000
DEFAULT_THETA = 0.95
DEFAULT_BRIDGE_NODES = 1001

_MC_CHUNK = 256

METHOD_BAYES = "bayes-clr"
METHOD_L2 = "l2-raw"
METHODS = (METHOD_BAYES, METHOD_L2)

CENTERING_GLOBAL = "global"
CENTERING_SEGMENTED = "segmented"
CENTERINGS = (CENTERING_GLOBAL, CENTERING_SEGMENTED)


def check_settings(
    alpha: float = DEFAULT_ALPHA,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    theta: float = DEFAULT_THETA,
    bridge_nodes: int = DEFAULT_BRIDGE_NODES,
    centering: str = CENTERING_GLOBAL,
    method: str = METHOD_BAYES,
) -> None:
    """Raise :class:`StructuralError` for a detection setting outside its range.

    :func:`detect` runs this before it looks at the data, so a bad setting
    fails the same way on every sequence.
    """
    if not 0.0 < alpha < 1.0:
        raise StructuralError(f"alpha must be in (0, 1), got {alpha}")
    if mc_samples < 1:
        raise StructuralError(f"mc_samples must be >= 1, got {mc_samples}")
    if not 0.0 < theta <= 1.0:
        raise StructuralError(f"theta must be in (0, 1], got {theta}")
    if bridge_nodes < 64:
        raise StructuralError(f"bridge_nodes must be >= 64, got {bridge_nodes}")
    if centering not in CENTERINGS:
        raise StructuralError(f"unknown centering mode {centering!r}; choose from {CENTERINGS}")
    if method not in METHODS:
        raise StructuralError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass(frozen=True, eq=False)
class DistributionalSequence:
    """Time-ordered densities on one shared grid, one per row of ``values``.

    ``values`` is a read-only (n, m) float64 matrix validated row by row
    in one vectorized pass; index i = 1..n is row i - 1.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    _clr: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", check_density_rows(self.grid, self.values))
        if self.n < 4:
            raise DegenerateInputError(f"sequence needs at least 4 densities, got {self.n}")

    @classmethod
    def from_densities(cls, densities: Sequence[DensityFunction]) -> "DistributionalSequence":
        """Stack per-density objects that share one grid into a sequence."""
        densities = list(densities)
        if not densities:
            raise StructuralError("no densities to stack")
        grid = densities[0].grid
        if any(f.grid != grid for f in densities[1:]):
            raise StructuralError("densities do not share one grid")
        return cls(grid, np.vstack([f.values for f in densities]))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def densities(self) -> tuple[DensityFunction, ...]:
        """The rows as :class:`DensityFunction` objects, built on each access."""
        return tuple(DensityFunction(self.grid, row) for row in self.values)

    def values_matrix(self) -> np.ndarray:
        """The (n, m) density matrix, the same array as ``values``."""
        return self.values

    def clr_matrix(self) -> np.ndarray:
        """Read-only (n, m) clr matrix, computed on the first call."""
        if self._clr is None:
            object.__setattr__(self, "_clr", clr_rows(self.grid, self.values))
        return self._clr

    def subsequence(self, positions: Sequence[int]) -> "DistributionalSequence":
        """Sub-sequence at the given 1-based positions (order preserved)."""
        rows = np.asarray(positions, dtype=np.intp) - 1
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise StructuralError(f"positions must lie in 1..{self.n}")
        return DistributionalSequence(self.grid, self.values[rows])


@dataclass(frozen=True)
class CusumProfile:
    """Squared CUSUM norms per split k = 1..n and the smallest maximizer."""

    norms_sq: np.ndarray
    argmax_k: int
    degenerate: bool

    @property
    def statistic(self) -> float:
        return float(self.norms_sq.max())

    def norm_sq_at(self, k: int) -> float:
        return float(self.norms_sq[k - 1])


@dataclass(frozen=True)
class CovarianceEigen:
    """Spectrum of the residual covariance operator on the grid.

    ``eigenvalues`` is the full clipped spectrum, descending.
    ``truncation`` is the smallest leading count whose cumulative
    eigenvalue share reaches ``theta``.
    """

    eigenvalues: np.ndarray
    truncation: int

    def retained(self) -> np.ndarray:
        return self.eigenvalues[: self.truncation]


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one change-point detection run."""

    k_hat: int
    statistic: float
    p_value: float
    alpha: float
    reject_null: bool
    L: int
    eigenvalues: tuple[float, ...]
    mc_samples: int
    seed: int
    centering: str
    degenerate: bool
    method: str
    increment: DensityFunction | None = field(default=None, repr=False)


def _cusum_matrix(mat: np.ndarray) -> np.ndarray:
    """All n CUSUM functions (one per row k = 1..n) of an (n, m) matrix."""
    n = mat.shape[0]
    prefix = np.cumsum(mat, axis=0)
    total = prefix[-1]
    frac = (np.arange(1, n + 1) / n)[:, None]
    return (prefix - frac * total) / np.sqrt(n)


def _profile_from_matrix(mat: np.ndarray, weights: np.ndarray) -> CusumProfile:
    cusum = _cusum_matrix(mat)
    norms_sq = (cusum * cusum) @ weights
    np.maximum(norms_sq, 0.0, out=norms_sq)
    statistic = float(norms_sq.max())
    argmax_k = int(np.argmax(norms_sq)) + 1  # smallest maximizer: argmax is first
    degenerate = statistic <= DEGENERATE_STATISTIC_TOL
    if degenerate:
        argmax_k = 1
    return CusumProfile(norms_sq=norms_sq, argmax_k=argmax_k, degenerate=degenerate)


def _method_matrix(seq: DistributionalSequence, method: str) -> np.ndarray:
    """The embedding a checked method tests: clr rows or raw density values."""
    return seq.clr_matrix() if method == METHOD_BAYES else seq.values


def cusum_profile(seq: DistributionalSequence, method: str = METHOD_BAYES) -> CusumProfile:
    """Squared CUSUM norm for every split k = 1..n: the Bayes norm of the clr
    rows for ``bayes-clr``, the L2 norm of the raw values for ``l2-raw``."""
    check_settings(method=method)
    return _profile_from_matrix(_method_matrix(seq, method), seq.grid.weights)


def _residual_matrix(mat: np.ndarray, centering: str, k_hat: int | None) -> np.ndarray:
    """Residuals of a checked centering mode."""
    if centering == CENTERING_GLOBAL:
        return mat - mat.mean(axis=0)
    if k_hat is None or not 1 <= k_hat < mat.shape[0]:
        raise DegenerateInputError(f"segmented centering needs 1 <= k_hat < n, got {k_hat}")
    out = np.empty_like(mat)
    out[:k_hat] = mat[:k_hat] - mat[:k_hat].mean(axis=0)
    out[k_hat:] = mat[k_hat:] - mat[k_hat:].mean(axis=0)
    return out


def _covariance_eigen_from_matrix(
    res: np.ndarray, weights: np.ndarray, theta: float
) -> CovarianceEigen:
    """Clipped spectrum of the covariance operator of residual rows ``res``.

    The integral operator with kernel C(t, s) = (1/n) sum_i e_i(t) e_i(s)
    is discretized with trapezoid weights W and solved as the symmetric
    problem W^(1/2) C W^(1/2).
    """
    cov = (res.T @ res) / res.shape[0]
    sqrt_w = np.sqrt(weights)
    evals = np.linalg.eigh(cov * np.outer(sqrt_w, sqrt_w))[0][::-1]
    leading = float(evals[0]) if evals.size else 0.0
    if leading <= 0.0:
        return CovarianceEigen(eigenvalues=np.zeros_like(evals), truncation=0)
    clipped = np.where(evals < EIGENVALUE_CLIP_RATIO * leading, 0.0, evals)
    cumulative = np.cumsum(clipped) / clipped.sum()
    truncation = int(np.searchsorted(cumulative, theta)) + 1
    truncation = min(truncation, int(np.count_nonzero(clipped)))
    return CovarianceEigen(eigenvalues=clipped, truncation=truncation)


def _simulate_chunk(
    lambdas: np.ndarray, count: int, bridge_nodes: int, chunk_seed: int
) -> np.ndarray:
    rng = np.random.default_rng(chunk_seed)
    steps = bridge_nodes - 1
    dt = 1.0 / steps
    t = np.arange(1, bridge_nodes) * dt
    incr = rng.standard_normal((count, lambdas.size, steps)) * np.sqrt(dt)
    walk = np.cumsum(incr, axis=2)
    bridge = walk - t[None, None, :] * walk[:, :, -1:]
    weighted = np.einsum("l,klj->kj", lambdas, bridge * bridge)
    return weighted.max(axis=1)


def simulate_limit_samples(
    eigen: Sequence[float],
    mc_samples: int,
    bridge_nodes: int = DEFAULT_BRIDGE_NODES,
    seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Monte Carlo samples of sup_x sum_l lambda_l B_l(x)^2 for the eigenvalues
    lambda_l in ``eigen``.

    Each Brownian bridge is a Gaussian random walk with sqrt(dt)-scaled
    increments, pinned by B(t) = W(t) - t W(1); the sup is taken over the
    ``bridge_nodes`` grid.  Samples are generated in fixed-size chunks with
    seeds derived from ``(seed, chunk)``, so output is independent of
    thread count.
    """
    lambdas = np.asarray(eigen, dtype=np.float64)
    if lambdas.size == 0:
        raise DegenerateInputError("no eigenvalues retained; nothing to simulate")
    if np.any(lambdas < 0) or not np.all(np.isfinite(lambdas)):
        raise NumericError("eigenvalues must be finite and non-negative")
    check_settings(mc_samples=mc_samples, bridge_nodes=bridge_nodes)

    counts = [_MC_CHUNK] * (mc_samples // _MC_CHUNK)
    if mc_samples % _MC_CHUNK:
        counts.append(mc_samples % _MC_CHUNK)

    def run(chunk_index: int) -> np.ndarray:
        return _simulate_chunk(
            lambdas, counts[chunk_index], bridge_nodes, derive_seed(seed, chunk_index)
        )

    chunks = parallel_map(run, range(len(counts)), threads)
    return np.concatenate(chunks)


def p_value(statistic: float, samples: Sequence[float]) -> float:
    """Fraction of Monte Carlo limit samples at or above the statistic."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise StructuralError("p_value needs a nonempty sample set")
    if not np.isfinite(statistic):
        raise NumericError(f"statistic must be finite, got {statistic!r}")
    return float(np.count_nonzero(samples >= statistic)) / samples.size


def mean_increment(seq: DistributionalSequence, k_hat: int) -> DensityFunction:
    """Bayes-space difference of post- and pre-break segment means, via clr rows."""
    if not 1 <= k_hat < seq.n:
        raise DegenerateInputError(f"increment needs 1 <= k_hat < n, got {k_hat}")
    mat = seq.clr_matrix()
    diff = mat[k_hat:].mean(axis=0) - mat[:k_hat].mean(axis=0)
    return clr_inv(ClrFunction(seq.grid, diff - float(seq.grid.weights @ diff)))


def detect(
    seq: DistributionalSequence,
    alpha: float = DEFAULT_ALPHA,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
    *,
    method: str = METHOD_BAYES,
    centering: str = CENTERING_GLOBAL,
    bridge_nodes: int = DEFAULT_BRIDGE_NODES,
    threads: int = 1,
) -> DetectionResult:
    """Change-point detection on a density sequence.

    ``method`` picks the embedding the test runs on: the clr rows (the
    Bayes-space detector) or the raw density values in L2 (the competitor).
    A zero profile or a covariance with nothing retained gives a degenerate
    non-rejection with p = 1.  A Bayes-space rejection at an interior split
    carries the estimated mean increment.
    """
    check_settings(alpha, mc_samples, theta, bridge_nodes, centering, method)
    mat = _method_matrix(seq, method)
    weights = seq.grid.weights
    profile = _profile_from_matrix(mat, weights)
    k_hat = profile.argmax_k
    eigenvalues: tuple[float, ...] = ()
    p = 1.0
    if not profile.degenerate:
        eigen = _covariance_eigen_from_matrix(
            _residual_matrix(mat, centering, k_hat), weights, theta
        )
        eigenvalues = tuple(float(v) for v in eigen.retained())
        if eigenvalues:
            samples = simulate_limit_samples(
                eigenvalues, mc_samples, bridge_nodes=bridge_nodes, seed=seed, threads=threads
            )
            p = p_value(profile.statistic, samples)
    reject = p < alpha
    increment = None
    if reject and method == METHOD_BAYES and k_hat < seq.n:
        increment = mean_increment(seq, k_hat)
    return DetectionResult(
        k_hat=k_hat,
        statistic=profile.statistic,
        p_value=p,
        alpha=alpha,
        reject_null=reject,
        L=len(eigenvalues),
        eigenvalues=eigenvalues,
        mc_samples=mc_samples,
        seed=seed,
        centering=centering,
        degenerate=not eigenvalues,
        method=method,
        increment=increment,
    )
