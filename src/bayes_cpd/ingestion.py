"""Turn a raw scalar monitoring series into a density-valued sequence.

Pipeline order: boxplot-filter the full series, estimate the common
support from what survives, map values onto [0, 1], split into fixed
time windows, and fit one boundary-reflected Gaussian KDE per window.
Each retained window becomes one density, in time order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cleaning import DEFAULT_WHISKER, boxplot_keep_mask
from .density import DEFAULT_NODE_COUNT, DensityFunction, Grid, normalize_rows, zero_avoid_rows
from .engine import DistributionalSequence
from .errors import DegenerateInputError, StructuralError
from .seeds import parallel_map

DEFAULT_MIN_SEGMENT_COUNT = 30
DEFAULT_MARGIN_FRACTION = 0.05
MIN_BANDWIDTH = 1e-3

#: The binned KDE places about this many lattice bins in one bandwidth.
KDE_BINS_PER_BANDWIDTH = 4
#: Half-width of the truncated Gaussian kernel, in bandwidths; the
#: standard normal density there is below 3e-18.
KDE_KERNEL_RADIUS = 9.0


@dataclass(frozen=True)
class RawSeries:
    """Scalar feature samples at non-decreasing timestamps (epoch seconds).

    A bad sample raises :class:`StructuralError` whose ``sample`` is the
    1-based index of the first one.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise StructuralError("timestamps and values must be equal-length 1-d")
        if t.size == 0:
            raise StructuralError("empty series")
        bad, problem = ~(np.isfinite(t) & np.isfinite(v)), "non-finite timestamp or value"
        if not bad.any():
            bad, problem = np.diff(t, prepend=t[0]) < 0, "timestamps must be non-decreasing"
        if bad.any():
            exc = StructuralError(problem)
            exc.sample = int(np.argmax(bad)) + 1
            raise exc
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SupportEstimate:
    """Common support of the feature values, with a symmetric margin.

    ``lower < upper`` is a precondition (:class:`StructuralError`, a usage
    error); support estimated from data that cannot give one is rejected
    earlier, by :func:`estimate_support`.
    """

    lower: float
    upper: float
    margin_fraction: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise StructuralError(
                f"support must satisfy lower < upper, got [{self.lower}, {self.upper}]"
            )


def estimate_support(values, margin_fraction: float = DEFAULT_MARGIN_FRACTION) -> SupportEstimate:
    """Min/max support widened by ``margin_fraction`` of the range each side."""
    values = np.asarray(values, dtype=np.float64)
    if margin_fraction < 0:
        raise StructuralError(f"margin_fraction must be >= 0, got {margin_fraction}")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        raise DegenerateInputError("all values equal; support is degenerate")
    span = hi - lo
    return SupportEstimate(lo - margin_fraction * span, hi + margin_fraction * span,
                           margin_fraction)


def normalize(values, support: SupportEstimate) -> np.ndarray:
    """Map values onto [0, 1] by the support transform, clamping overshoots."""
    values = np.asarray(values, dtype=np.float64)
    unit = (values - support.lower) / (support.upper - support.lower)
    return np.clip(unit, 0.0, 1.0)


def count_outside_support(values, support: SupportEstimate) -> int:
    values = np.asarray(values, dtype=np.float64)
    return int(np.count_nonzero((values < support.lower) | (values > support.upper)))


@dataclass(frozen=True)
class SegmentationResult:
    """Retained window values plus records of everything dropped."""

    segments: list[np.ndarray]
    segment_indices: list[int]
    dropped: list[tuple[int, int]]  # (window index, sample count)


def segment(
    series: RawSeries,
    window_seconds: float,
    min_count: int = DEFAULT_MIN_SEGMENT_COUNT,
) -> SegmentationResult:
    """Split into contiguous windows aligned to the first timestamp.

    Window j covers [t0 + j*w, t0 + (j+1)*w); windows with fewer than
    ``min_count`` samples (including empty ones inside gaps) are dropped
    and recorded.
    """
    if not window_seconds > 0:
        raise StructuralError(f"window must be positive, got {window_seconds}")
    t0 = series.timestamps[0]
    window_ids = np.floor((series.timestamps - t0) / window_seconds).astype(np.int64)
    # Timestamps are non-decreasing, so each window is one contiguous run.
    bounds = np.searchsorted(window_ids, np.arange(window_ids[-1] + 2))
    segments, indices, dropped = [], [], []
    for j in range(int(window_ids[-1]) + 1):
        values = series.values[bounds[j]:bounds[j + 1]]
        if values.size >= min_count:
            segments.append(values)
            indices.append(j)
        else:
            dropped.append((j, int(values.size)))
    return SegmentationResult(segments=segments, segment_indices=indices, dropped=dropped)


def silverman_bandwidth(values) -> float:
    """Silverman's rule 1.06 * min(sd, IQR/1.34) * n^(-1/5), floored at 1e-3."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 2:
        raise StructuralError("bandwidth needs at least 2 samples")
    sd = float(np.std(values, ddof=1))
    q1, q3 = np.percentile(values, [25, 75])
    scale = min(sd, (q3 - q1) / 1.34)
    bandwidth = 1.06 * scale * n ** (-0.2)
    if bandwidth < MIN_BANDWIDTH:
        warnings.warn(
            f"bandwidth {bandwidth:.3g} below floor; using {MIN_BANDWIDTH}"
        )
        return MIN_BANDWIDTH
    return float(bandwidth)


def kde_bin_count(grid: Grid, bandwidth: float) -> tuple[int, int]:
    """(refinement r, bin count B) of the lattice :func:`kde` bins on.

    The lattice refines the grid r-fold, so every grid node is a bin and
    a bandwidth spans about ``KDE_BINS_PER_BANDWIDTH`` bins.  B grows as
    1/bandwidth; at ``MIN_BANDWIDTH`` it is at most
    ``node_count + KDE_BINS_PER_BANDWIDTH / MIN_BANDWIDTH``.
    """
    r = max(1, math.ceil(KDE_BINS_PER_BANDWIDTH * grid.spacing / bandwidth))
    return r, (grid.node_count - 1) * r + 1


def kde(values, grid: Grid, bandwidth: float | None = None) -> DensityFunction:
    """Gaussian KDE on [0, 1] with boundary reflection at both endpoints.

    Mass leaking past an endpoint is folded back by mirroring every sample
    across 0 and across 1.  Samples are linearly binned on a refinement of
    the grid (:func:`kde_bin_count`), the bin counts are mirrored the same
    way, and the mirrored counts are convolved with the Gaussian kernel
    truncated at ``KDE_KERNEL_RADIUS`` bandwidths (or one grid spacing, if
    wider), so the cost depends on the sample count only through the
    binning.  The estimate is renormalized to unit trapezoid integral and
    passed through the zero-avoidance floor.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise StructuralError("KDE needs at least one sample")
    if np.any((values < 0.0) | (values > 1.0)):
        raise StructuralError("KDE samples must lie in [0, 1]")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(values)
    if not (math.isfinite(bandwidth) and bandwidth >= MIN_BANDWIDTH):
        raise StructuralError(
            f"bandwidth must be finite and >= {MIN_BANDWIDTH}, got {bandwidth}"
        )
    r, bins = kde_bin_count(grid, bandwidth)
    # Linear binning: each sample splits its weight between its two bins.
    position = values * (bins - 1)
    lower = np.minimum(position.astype(np.intp), bins - 2)
    upper_share = position - lower
    counts = (np.bincount(lower, weights=1.0 - upper_share, minlength=bins)
              + np.bincount(lower + 1, weights=upper_share, minlength=bins))
    # Images -v and 2 - v land on the mirrored bins, so the three-image
    # sum is one convolution over [-1, 2]; its middle third is [0, 1].
    mirrored = np.zeros(3 * bins - 2)
    mirrored[bins - 1:2 * bins - 1] = counts
    mirrored[:bins] += counts[::-1]
    mirrored[2 * bins - 2:] += counts[::-1]
    # The kernel spans at least one grid spacing (r bins), so every sample
    # reaches a node even when the bandwidth is far below the spacing;
    # offsets beyond 2(B - 1) bins cannot reach [0, 1] from [-1, 2].
    bin_width = 1.0 / (bins - 1)
    reach = min(max(math.ceil(KDE_KERNEL_RADIUS * bandwidth / bin_width), r),
                2 * (bins - 1))
    offsets = np.arange(-reach, reach + 1) * (bin_width / bandwidth)
    kernel = np.exp(-0.5 * offsets * offsets)
    smoothed = np.convolve(mirrored, kernel)
    total = smoothed[reach + bins - 1:reach + 2 * bins - 1:r]
    total /= values.size * bandwidth * np.sqrt(2.0 * np.pi)
    return DensityFunction(grid, zero_avoid_rows(normalize_rows(grid, total)))


@dataclass(frozen=True)
class IngestConfig:
    """Settings for the raw-series-to-densities pipeline."""

    window_seconds: float = 86400.0
    whisker: float = DEFAULT_WHISKER
    margin_fraction: float = DEFAULT_MARGIN_FRACTION
    grid_nodes: int = DEFAULT_NODE_COUNT
    bandwidth: float | None = None  # None = Silverman per segment
    min_count: int = DEFAULT_MIN_SEGMENT_COUNT
    support: tuple[float, float] | None = None  # externally estimated, optional
    threads: int = 1


@dataclass(frozen=True)
class IngestionReport:
    """What the pipeline kept, dropped, clamped, and smoothed with."""

    segments_total: int
    segments_dropped: list[tuple[int, int]]
    scalar_outliers_removed: int
    clamped_values: int
    support: SupportEstimate
    bandwidth_per_segment: list[float] = field(default_factory=list)


def build_sequence(
    series: RawSeries, config: IngestConfig | None = None
) -> tuple[DistributionalSequence, IngestionReport]:
    """Full ingestion: filter, support, normalize, segment, per-window KDE."""
    config = config or IngestConfig()
    grid = Grid(config.grid_nodes)

    keep = boxplot_keep_mask(series.values, config.whisker)
    removed = int(np.count_nonzero(~keep))
    filtered = RawSeries(series.timestamps[keep], series.values[keep])

    if config.support is not None:
        lo, hi = config.support
        support = SupportEstimate(lo, hi, 0.0)
    else:
        support = estimate_support(filtered.values, config.margin_fraction)
    clamped = count_outside_support(filtered.values, support)
    unit = normalize(filtered.values, support)

    seg = segment(RawSeries(filtered.timestamps, unit), config.window_seconds,
                  config.min_count)
    if len(seg.segments) < 4:
        raise DegenerateInputError(
            f"only {len(seg.segments)} usable segments; need at least 4"
        )

    bandwidths = [
        config.bandwidth if config.bandwidth is not None else silverman_bandwidth(v)
        for v in seg.segments
    ]
    densities = parallel_map(
        lambda i: kde(seg.segments[i], grid, bandwidths[i]),
        range(len(seg.segments)),
        config.threads,
    )
    report = IngestionReport(
        segments_total=len(seg.segments) + len(seg.dropped),
        segments_dropped=seg.dropped,
        scalar_outliers_removed=removed,
        clamped_values=clamped,
        support=support,
        bandwidth_per_segment=[float(b) for b in bandwidths],
    )
    return DistributionalSequence.from_densities(densities), report
