"""Functional CUSUM change-point detection for density-valued sequences.

The detection pipeline: transform each density (clr for the Bayes-space
method, identity for the raw-L2 competitor), build the functional CUSUM
profile over candidate split points, locate the break at the profile's
argmax, estimate the covariance operator of the residuals about the mean,
simulate the eigenvalue-weighted Brownian-bridge limit of the test
statistic by Monte Carlo, and convert the observed maximum into a p-value.

Both methods run through one :func:`detect` on an (n, m) matrix of
transformed values, so they differ in nothing but the transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
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
DEFAULT_BRIDGE_NODES = 33
#: beta = -zeta(1/2) / sqrt(2 pi): a continuous path's supremum lies about beta
#: local standard deviations times sqrt(dt) above its largest value on a grid
#: of step dt.
BRIDGE_SHIFT = 0.5825971579390107

_MC_CHUNK = 256
#: Normals drawn per Monte Carlo block: a chunk draws max(1, _MC_BLOCK // (L * steps))
#: samples at a time, so its temporaries stay near this size whatever L is.
_MC_BLOCK = 1 << 16

METHOD_BAYES = "bayes-clr"
METHOD_L2 = "l2-raw"
METHODS = (METHOD_BAYES, METHOD_L2)

#: Residuals are always taken about the sequence mean; every result says so.
CENTERING = "global"


def check_settings(
    alpha: float = DEFAULT_ALPHA,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    theta: float = DEFAULT_THETA,
    bridge_nodes: int = DEFAULT_BRIDGE_NODES,
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
    if bridge_nodes < 33:
        raise StructuralError(f"bridge_nodes must be >= 33, got {bridge_nodes}")
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

    ``eigenvalues`` is the clipped spectrum, descending, of length
    min(n, m) for n residual rows on m grid nodes: the operator has rank
    at most n, so its other m - n eigenvalues are zero and left out.
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


def _residual_matrix(mat: np.ndarray) -> np.ndarray:
    """The rows of ``mat`` less their mean."""
    return mat - mat.mean(axis=0)


def _covariance_eigen_from_matrix(
    res: np.ndarray, weights: np.ndarray, theta: float
) -> CovarianceEigen:
    """Clipped spectrum of the covariance operator of residual rows ``res``.

    The integral operator with kernel C(t, s) = (1/n) sum_i e_i(t) e_i(s)
    is discretized with trapezoid weights W as the symmetric problem
    W^(1/2) C W^(1/2) = A^T A / n, where A = res W^(1/2).  Its nonzero
    eigenvalues are those of the Gram matrix A A^T / n, so the smaller of
    the two is solved, for eigenvalues only.
    """
    a = res * np.sqrt(weights)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    evals = np.linalg.eigvalsh(gram / a.shape[0])[::-1]
    leading = float(evals[0]) if evals.size else 0.0
    if leading <= 0.0:
        return CovarianceEigen(eigenvalues=np.zeros_like(evals), truncation=0)
    clipped = np.where(evals < EIGENVALUE_CLIP_RATIO * leading, 0.0, evals)
    cumulative = np.cumsum(clipped) / clipped.sum()
    truncation = int(np.searchsorted(cumulative, theta)) + 1
    truncation = min(truncation, int(np.count_nonzero(clipped)))
    return CovarianceEigen(eigenvalues=clipped, truncation=truncation)


def _checked_eigenvalues(eigen: Sequence[float]) -> np.ndarray:
    """``eigen`` as a float64 array; raises unless 1-D, nonempty, finite and non-negative."""
    lambdas = np.asarray(eigen, dtype=np.float64)
    if lambdas.ndim != 1:
        raise StructuralError(f"eigenvalues must be a 1-D vector, got shape {lambdas.shape}")
    if lambdas.size == 0:
        raise DegenerateInputError("no eigenvalues retained; nothing to simulate")
    if np.any(lambdas < 0) or not np.all(np.isfinite(lambdas)):
        raise NumericError("eigenvalues must be finite and non-negative")
    return lambdas


def _simulate_limit_samples(
    eigens: Sequence[Sequence[float]],
    mc_samples: int,
    bridge_nodes: int = DEFAULT_BRIDGE_NODES,
    seed: int = 0,
    threads: int = 1,
) -> list[np.ndarray]:
    """:func:`simulate_limit_samples` for several eigenvalue vectors on one draw.

    Returns one sample array per vector.  The longest vector, of length
    L_max, gets exactly its standalone samples; a vector of length L gets
    the standalone samples of itself padded with L_max - L zeros, which
    follow the same law.  The two arms of a ``compare_l2`` experiment
    replicate share one draw this way: the arm with the larger L gets its
    own samples from :func:`simulate_limit_samples`, and the other arm the
    samples of its eigenvalues padded with zeros to that L.

    Chunk c, the samples from c * _MC_CHUNK up to the next chunk, draws
    from its own generator, seeded ``derive_seed(seed, c)``, and writes its
    own rows of the outputs.  It walks L_max bridges, drawn, pinned and
    squared ``block`` samples at a time; each vector of length L weights
    the first L bridges.  ``standard_normal`` fills its output in sample
    order, so the blocks consume a chunk's normals in the same order as one
    (chunk, L_max, steps) draw would, and give bit-identical samples in
    bounded memory.

    Each sample keeps the node j of its largest S_j = sum_l u_l B_l(t_j)^2,
    with u = lambda / max(lambda), and its block reduces the squared
    bridges there to the local sum sum_l u_l^2 B_l(t_j)^2, so the call
    holds two values per sample.  The local sums run over l in order, so
    zero padding leaves them exact.
    Once all chunks are in, the continuity correction runs once: the sample
    is max(lambda) (sqrt(S_j) + BRIDGE_SHIFT sigma_j sqrt(dt))^2 with
    sigma_j^2 = sum_l u_l^2 B_l(t_j)^2 / S_j, and 0 where S_j = 0.
    """
    lambdas = tuple(_checked_eigenvalues(eigen) for eigen in eigens)
    check_settings(mc_samples=mc_samples, bridge_nodes=bridge_nodes)
    steps = bridge_nodes - 1
    dt = 1.0 / steps
    sqrt_dt = np.sqrt(dt)
    t = np.arange(1, bridge_nodes) * dt
    l_max = max(v.size for v in lambdas)
    block = min(mc_samples, _MC_CHUNK, max(1, _MC_BLOCK // (l_max * steps)))
    scales = [float(v.max()) for v in lambdas]
    units = [v / scale if scale > 0.0 else v for v, scale in zip(lambdas, scales)]
    tops = [np.empty(mc_samples) for _ in lambdas]
    local_sums = [np.empty(mc_samples) for _ in lambdas]

    def run(first: int) -> None:
        rng = np.random.default_rng(derive_seed(seed, first // _MC_CHUNK))
        walk = np.empty((block, l_max, steps))
        weighted = np.empty((block, steps))
        end = min(first + _MC_CHUNK, mc_samples)
        for start in range(first, end, block):
            stop = min(start + block, end)
            w, s = walk[: stop - start], weighted[: stop - start]
            rows = np.arange(stop - start)
            rng.standard_normal(out=w)
            w *= sqrt_dt
            np.cumsum(w, axis=2, out=w)
            w -= t * w[:, :, -1:]  # pin the walk into a bridge
            np.square(w, out=w)
            for u, top, sums in zip(units, tops, local_sums):
                np.einsum("l,klj->kj", u, w[:, : u.size], out=s)
                j = s.argmax(axis=1)
                top[start:stop] = s[rows, j]
                sq = w[rows, : u.size, j]
                local = sums[start:stop]
                local[:] = u[0] * u[0] * sq[:, 0]
                for l in range(1, u.size):
                    local += u[l] * u[l] * sq[:, l]

    parallel_map(run, range(0, mc_samples, _MC_CHUNK), threads)
    outs = []
    for scale, top, local in zip(scales, tops, local_sums):
        var = np.divide(local, top, out=np.zeros(mc_samples), where=top > 0.0)
        outs.append(scale * (np.sqrt(top) + BRIDGE_SHIFT * np.sqrt(var) * sqrt_dt) ** 2)
    return outs


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
    increments, pinned by B(t) = W(t) - t W(1).  The largest value S on
    the ``bridge_nodes`` grid undershoots the continuous sup, so each
    sample is the continuity-corrected (sqrt(S) + beta sigma sqrt(dt))^2,
    with beta = -zeta(1/2) / sqrt(2 pi) (:data:`BRIDGE_SHIFT`) and sigma^2 =
    sum_l lambda_l^2 B_l^2 / sum_l lambda_l B_l^2 the local variance of
    sqrt(S) at the maximizing node (Broadie, Glasserman & Kou, Math.
    Finance 7, 1997; Finance Stoch. 3, 1999); the default 33 nodes, 32
    normals per bridge, then hit the continuous law in its body and tail.
    The result scales exactly linearly in the eigenvalues, and an all-zero
    vector gives zero samples.

    Samples are generated in fixed-size chunks with seeds derived from
    ``(seed, chunk)``, so output is independent of thread count.  The
    normals are laid out as (sample, L, step), so a vector padded with
    zeros keeps its law but not its samples.
    """
    return _simulate_limit_samples((eigen,), mc_samples, bridge_nodes, seed, threads)[0]


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


def _detect_statistic(
    seq: DistributionalSequence, theta: float, method: str, alpha: float, mc_samples: int,
    seed: int,
) -> DetectionResult:
    """Stage 1 of :func:`detect`: profile, break estimate and retained
    spectrum, as the result that holds before any draw (p = 1, no
    rejection), which is final when nothing is retained.

    Nothing here draws; ``seed`` is only recorded.
    """
    mat = _method_matrix(seq, method)
    weights = seq.grid.weights
    profile = _profile_from_matrix(mat, weights)
    eigenvalues: tuple[float, ...] = ()
    if not profile.degenerate:
        eigen = _covariance_eigen_from_matrix(_residual_matrix(mat), weights, theta)
        eigenvalues = tuple(float(v) for v in eigen.retained())
    return DetectionResult(
        k_hat=profile.argmax_k,
        statistic=profile.statistic,
        p_value=1.0,
        alpha=alpha,
        reject_null=False,
        L=len(eigenvalues),
        eigenvalues=eigenvalues,
        mc_samples=mc_samples,
        seed=seed,
        centering=CENTERING,
        degenerate=not eigenvalues,
        method=method,
    )


def _with_p_value(result: DetectionResult, samples: np.ndarray) -> DetectionResult:
    """Stage 2 of :func:`detect`: ``result`` with the p-value of its
    statistic among the limit ``samples``, and the decision it gives."""
    p = p_value(result.statistic, samples)
    return dc_replace(result, p_value=p, reject_null=p < result.alpha)


def detect(
    seq: DistributionalSequence,
    alpha: float = DEFAULT_ALPHA,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    theta: float = DEFAULT_THETA,
    seed: int = 0,
    *,
    method: str = METHOD_BAYES,
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
    check_settings(alpha, mc_samples, theta, bridge_nodes, method)
    result = _detect_statistic(seq, theta, method, alpha, mc_samples, seed)
    if result.L:
        result = _with_p_value(result, simulate_limit_samples(
            result.eigenvalues, mc_samples, bridge_nodes=bridge_nodes, seed=seed, threads=threads
        ))
    if result.reject_null and method == METHOD_BAYES and result.k_hat < seq.n:
        result = dc_replace(result, increment=mean_increment(seq, result.k_hat))
    return result
