"""Grid-sampled probability densities and their Bayes-space algebra.

Densities live on one shared uniform grid over [0, 1] and are treated as
elements of the Bayes space: a Hilbert space of positive functions whose
linear operations are perturbation (pointwise product, renormalized) and
powering (pointwise power, renormalized).  The centered log-ratio (clr)
transform maps this space isometrically onto the zero-integral subspace of
L2[0, 1], which is where all heavy computation happens.

All quadrature is trapezoid-rule on the shared grid.  Every operation
returns freshly renormalized values, so unit-integral drift cannot
accumulate across chained calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, StructuralError

#: Acceptance tolerance for the unit-integral invariant of densities.
UNIT_INTEGRAL_TOL = 1e-6
#: Acceptance tolerance for the zero-integral invariant of clr functions.
ZERO_INTEGRAL_TOL = 1e-6
#: Normalizing integrals below this are treated as underflow.
UNDERFLOW_LIMIT = 1e-300

DEFAULT_NODE_COUNT = 512


def _readonly(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


class Grid:
    """Uniform partition of [0, 1] with ``node_count`` nodes (both endpoints).

    Carries precomputed trapezoid quadrature weights; two grids compare
    equal iff they have the same node count.
    """

    __slots__ = ("node_count", "nodes", "spacing", "weights")

    def __init__(self, node_count: int = DEFAULT_NODE_COUNT):
        if node_count < 16:
            raise StructuralError(f"node_count must be >= 16, got {node_count}")
        self.node_count = int(node_count)
        self.spacing = 1.0 / (self.node_count - 1)
        self.nodes = _readonly(np.linspace(0.0, 1.0, self.node_count))
        weights = np.full(self.node_count, self.spacing)
        weights[0] = weights[-1] = 0.5 * self.spacing
        self.weights = _readonly(weights)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid) and other.node_count == self.node_count

    def __hash__(self) -> int:
        return hash(("Grid", self.node_count))

    def __repr__(self) -> str:
        return f"Grid(node_count={self.node_count})"


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Trapezoid-rule integral of per-node ``values`` over [0, 1]."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.node_count,):
        raise StructuralError(
            f"expected {grid.node_count} values, got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite value in integrand")
    return float(grid.weights @ values)


def check_density_rows(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Validate an (n, m) matrix of density rows; return a read-only copy.

    Rows must be finite (else :class:`NumericError`), non-negative (else
    :class:`DomainError`) and of unit integral (else :class:`StructuralError`).
    The error names the first bad row, 1-based, in its message and ``record``.
    """
    values = _readonly(values)
    if values.ndim != 2 or values.shape[1] != grid.node_count:
        raise StructuralError(
            f"expected rows of {grid.node_count} values, got shape {values.shape}"
        )
    non_finite = ~np.isfinite(values).all(axis=1)
    negative = (values < 0.0).any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        totals = values @ grid.weights
        drift = ~(np.abs(totals - 1.0) <= UNIT_INTEGRAL_TOL)
    bad = non_finite | negative | drift
    if bad.any():
        i = int(np.argmax(bad))
        if non_finite[i]:
            error, problem = NumericError, "non-finite density value"
        elif negative[i]:
            error, problem = DomainError, "negative density value"
        else:
            error, problem = StructuralError, (
                f"density integral {float(totals[i])!r} outside 1 +/- {UNIT_INTEGRAL_TOL}"
            )
        raise error(f"density row {i + 1}: {problem}", record=i + 1)
    return values


class DensityFunction:
    """A density sampled on a grid: non-negative, unit trapezoid integral.

    Strict positivity is the normal state; zero-valued nodes are tolerated
    at construction so that :func:`zero_avoid` can repair freshly built
    raw densities.  Log-based operations reject non-positive values.
    Validation is :func:`check_density_rows` on a one-row matrix.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        self.values = check_density_rows(grid, np.asarray(values)[None])[0]

    def min_value(self) -> float:
        return float(self.values.min())

    def __repr__(self) -> str:
        return f"DensityFunction(grid={self.grid!r}, min={self.min_value():.3g})"


class ClrFunction:
    """A clr-transformed density: zero trapezoid integral on the grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.node_count,):
            raise StructuralError(
                f"expected {grid.node_count} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("non-finite clr value")
        total = float(grid.weights @ values)
        if abs(total) > ZERO_INTEGRAL_TOL:
            raise StructuralError(
                f"clr integral {total!r} outside 0 +/- {ZERO_INTEGRAL_TOL}"
            )
        self.grid = grid
        self.values = _readonly(values)

    def __repr__(self) -> str:
        return f"ClrFunction(grid={self.grid!r})"


def _require_same_grid(f: DensityFunction, g: DensityFunction) -> Grid:
    if f.grid != g.grid:
        raise StructuralError("densities live on different grids")
    return f.grid


def normalize_rows(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Each row of ``values`` (or the one row of a vector) over its integral."""
    totals = np.vecdot(values, grid.weights)
    bad = ~(np.isfinite(totals) & (totals >= UNDERFLOW_LIMIT))
    if bad.any():
        total = float(np.extract(bad, totals)[0])
        raise NumericError(f"normalizing integral underflow/overflow: {total!r}")
    return values / totals[..., None]


def _normalized_density(grid: Grid, values: np.ndarray) -> DensityFunction:
    return DensityFunction(grid, normalize_rows(grid, values))


def zero_avoid_rows(values: np.ndarray) -> np.ndarray:
    """Affine floor 0.9*f + 0.1 of unit-integral rows: keeps unit integral,
    guarantees values >= 0.1.

    The single sanctioned repair turning weakly positive densities into
    strictly positive ones so logarithms are defined.
    """
    return 0.9 * values + 0.1


def zero_avoid(f: DensityFunction) -> DensityFunction:
    """:func:`zero_avoid_rows` of one density."""
    return DensityFunction(f.grid, zero_avoid_rows(f.values))


def b_add(f: DensityFunction, g: DensityFunction) -> DensityFunction:
    """Bayes-space addition: pointwise product, renormalized to unit integral."""
    grid = _require_same_grid(f, g)
    return _normalized_density(grid, f.values * g.values)


def b_smul(c: float, f: DensityFunction) -> DensityFunction:
    """Bayes-space scalar multiplication: pointwise power, renormalized."""
    if not np.isfinite(c):
        raise NumericError(f"scalar must be finite, got {c!r}")
    with np.errstate(divide="ignore", over="ignore"):
        powered = f.values**float(c)
    if not np.all(np.isfinite(powered)):
        raise NumericError("overflow in pointwise power; density has zero values?")
    return _normalized_density(f.grid, powered)


def clr(f: DensityFunction) -> ClrFunction:
    """Centered log-ratio transform: log f minus its integral mean over [0, 1]."""
    return ClrFunction(f.grid, clr_rows(f.grid, f.values[None, :])[0])


def clr_inv(u: ClrFunction) -> DensityFunction:
    """Inverse clr: exp(u) renormalized to a unit-integral density.

    ``u`` is shifted down by max(u) - 700 before ``exp`` when max(u)
    exceeds 700, which gives the same density and keeps ``exp`` finite;
    below that the shift is exactly 0.
    """
    return _normalized_density(u.grid, np.exp(u.values - max(0.0, u.values.max() - 700.0)))


def clr_rows(grid: Grid, values: np.ndarray) -> np.ndarray:
    """clr of every row of an (n, m) density matrix, as a read-only matrix."""
    if values.min() <= 0.0:
        i = int(np.argmax((values <= 0.0).any(axis=1))) + 1
        raise DomainError(f"density row {i}: clr needs strictly positive values", record=i)
    log_values = np.log(values)
    out = log_values - (log_values @ grid.weights)[:, None]
    out.flags.writeable = False
    return out


def b_inner(f: DensityFunction, g: DensityFunction) -> float:
    """Bayes-space inner product, via the clr isometry: integral of clr f * clr g."""
    _require_same_grid(f, g)
    cf = clr(f).values
    cg = clr(g).values
    return float(f.grid.weights @ (cf * cg))


def b_norm(f: DensityFunction) -> float:
    """Bayes-space norm sqrt(<f, f>)."""
    return float(np.sqrt(max(b_inner(f, f), 0.0)))


def b_dist(f: DensityFunction, g: DensityFunction) -> float:
    """Bayes-space distance: norm of f (+) ((-1) (.) g), via the Bayes operations."""
    return b_norm(b_add(f, b_smul(-1.0, g)))


def first_moment(f: DensityFunction) -> float:
    """The mean of the underlying random variable: integral of x * f(x)."""
    return float(f.grid.weights @ (f.grid.nodes * f.values))


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def _log_beta(a, b) -> np.ndarray:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b), elementwise."""
    return _lgamma(a) + _lgamma(b) - _lgamma(a + b)


def beta_pdf_values(grid: Grid, a, b) -> np.ndarray:
    """Raw Beta(a, b) density values on the grid, endpoints filled inward.

    Shapes ``a`` and ``b`` are scalars or equal-shape arrays; the result
    has one grid row per shape pair, so arrays of k pairs give a (k, m)
    matrix.  Endpoint nodes x = 0, 1 take the adjacent interior value:
    with shape parameters > 1 the density vanishes there, and the copy
    keeps values strictly positive for downstream log transforms.  Not
    renormalized.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    bad = ~((a > 0) & (b > 0))
    if bad.any():
        i = np.argmax(bad.ravel())
        raise DomainError(
            f"Beta shape parameters must be positive, got {a.flat[i]}, {b.flat[i]}"
        )
    try:
        log_beta = _log_beta(a, b)[..., None]
    except OverflowError:  # lgamma overflows for shapes above about 2.5e305
        raise NumericError(f"log B(a, b) overflows at shapes up to {max(a.max(), b.max())}") from None
    a, b = a[..., None], b[..., None]
    x = grid.nodes[1:-1]
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_beta
    values = np.empty(log_pdf.shape[:-1] + (grid.node_count,))
    values[..., 1:-1] = np.exp(log_pdf)
    values[..., 0] = values[..., 1]
    values[..., -1] = values[..., -2]
    finite = np.isfinite(values).all(axis=-1)
    if not finite.all():
        i = np.argmin(finite.ravel())
        raise NumericError(f"Beta({a.flat[i]}, {b.flat[i]}) overflows on this grid")
    return values


def beta_density(grid: Grid, a: float, b: float) -> DensityFunction:
    """Beta(a, b) as a unit-integral grid density (endpoints filled inward)."""
    return _normalized_density(grid, beta_pdf_values(grid, a, b))
