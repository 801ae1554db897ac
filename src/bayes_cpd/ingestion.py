"""Turn a raw scalar monitoring series into a density-valued sequence.

Pipeline order: boxplot-filter the full series, estimate the common
support from what survives, split the kept samples into fixed time
windows, then map each window's values onto [0, 1] and fit one
boundary-reflected Gaussian KDE to them.  Each retained window becomes
one density, in time order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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

    A bad sample raises :class:`StructuralError` whose ``record`` is the
    1-based index of the first one; an empty series names record 1.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise StructuralError("timestamps and values must be equal-length 1-d")
        if t.size == 0:
            raise StructuralError("empty series", record=1)
        # min and max propagate NaN, so they are finite only when every
        # sample is; bad[i] concerns sample i + 1 + offset (1-based)
        if all(math.isfinite(x) for x in (t.min(), t.max(), v.min(), v.max())):
            bad, offset, problem = t[1:] < t[:-1], 1, "timestamps must be non-decreasing"
        else:
            bad, offset, problem = ~(np.isfinite(t) & np.isfinite(v)), 0, "non-finite timestamp or value"
        if bad.any():
            raise StructuralError(problem, record=int(np.argmax(bad)) + 1 + offset)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SupportEstimate:
    """Common support ``[lower, upper]`` of the feature values.

    Finite bounds with ``lower < upper`` are a precondition
    (:class:`StructuralError`, a usage error); support estimated from data
    that cannot give one is rejected earlier, by :func:`estimate_support`.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise StructuralError(
                f"support bounds must be finite, got [{self.lower}, {self.upper}]"
            )
        if not self.lower < self.upper:
            raise StructuralError(
                f"support must satisfy lower < upper, got [{self.lower}, {self.upper}]"
            )


def estimate_support(values, margin_fraction: float = DEFAULT_MARGIN_FRACTION) -> SupportEstimate:
    """Min/max support widened by ``margin_fraction`` of the range each side."""
    values = np.asarray(values, dtype=np.float64)
    if not (math.isfinite(margin_fraction) and margin_fraction >= 0):
        raise StructuralError(f"margin_fraction must be finite and >= 0, got {margin_fraction}")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        raise DegenerateInputError("all values equal; support is degenerate")
    span = hi - lo
    return SupportEstimate(lo - margin_fraction * span, hi + margin_fraction * span)


def normalize(values, support: SupportEstimate) -> np.ndarray:
    """Map values onto [0, 1] by the support transform, clamping overshoots."""
    unit = np.asarray(values, dtype=np.float64) - support.lower
    unit /= support.upper - support.lower
    return np.clip(unit, 0.0, 1.0, out=unit)


def count_outside_support(values, support: SupportEstimate, *, keep=None) -> int:
    """How many values lie outside the support; with ``keep``, how many of the kept ones."""
    values = np.asarray(values, dtype=np.float64)
    outside = (values < support.lower) | (values > support.upper)
    if keep is not None:
        outside &= keep
    return int(np.count_nonzero(outside))


@dataclass(frozen=True)
class SegmentationResult:
    """Retained windows as slices of the series, plus records of everything dropped.

    Retained window ``segment_indices[i]`` holds the kept samples of
    ``slices[i]``, ``counts[i]`` of them.
    """

    slices: list[slice]
    counts: list[int]
    segment_indices: list[int]
    dropped: list[tuple[int, int]]  # (window index, sample count)


def segment(
    series: RawSeries,
    window_seconds: float,
    min_count: int = DEFAULT_MIN_SEGMENT_COUNT,
    *,
    keep=None,
) -> SegmentationResult:
    """Split the kept samples into contiguous windows aligned to the first
    kept timestamp.

    ``keep`` is a boolean mask over the samples; by default every sample
    is kept.  Window j covers [t0 + j*w, t0 + (j+1)*w); windows with fewer
    than ``min_count`` kept samples (including empty ones inside gaps) are
    dropped and recorded.  ``min_count`` must be at least 1, so that no
    empty window is kept.  Samples outside the first and last kept one
    play no part, however far away they lie.

    Work and memory grow with the samples, except the record of dropped
    windows: it holds one count per window id up to the last, so a span
    too large to allocate fails at once.
    """
    if not window_seconds > 0:
        raise StructuralError(f"window must be positive, got {window_seconds}")
    if min_count < 1:
        raise StructuralError(f"min_count must be >= 1, got {min_count}")
    t = series.timestamps
    if keep is None:
        keep = np.ones(t.size, dtype=bool)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != t.shape:
        raise StructuralError(f"keep mask has shape {keep.shape}, series {t.shape}")
    first, last = int(np.argmax(keep)), t.size - 1 - int(np.argmax(keep[::-1]))
    if not keep[first]:
        raise StructuralError("keep mask keeps no sample")
    window_ids = t[first:last + 1] - t[first]
    window_ids /= window_seconds
    np.floor(window_ids, out=window_ids)
    if not window_ids[-1] < 2.0 ** 63:
        raise StructuralError(f"window of {window_seconds} s gives more windows than int64 counts")
    # Timestamps are non-decreasing, so each window is one contiguous run
    # of samples, from one bound to the next; a run may hold no kept one.
    bounds = np.concatenate(([0], np.flatnonzero(window_ids[1:] != window_ids[:-1]) + 1,
                             [window_ids.size]))
    run_ids = window_ids[bounds[:-1]].astype(np.int64)
    del window_ids
    bounds += first
    run_counts = np.add.reduceat(keep[:last + 1], bounds[:-1], dtype=np.int64)
    window_counts = np.zeros(run_ids[-1] + 1, dtype=np.int64)
    window_counts[run_ids] = run_counts
    short = np.flatnonzero(window_counts < min_count)
    retained, bounds = np.flatnonzero(run_counts >= min_count), bounds.tolist()
    return SegmentationResult(
        slices=[slice(bounds[r], bounds[r + 1]) for r in retained.tolist()],
        counts=run_counts[retained].tolist(),
        segment_indices=run_ids[retained].tolist(),
        dropped=list(zip(short.tolist(), window_counts[short].tolist())),
    )


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
    upper_share = values * (bins - 1)
    lower = upper_share.astype(np.intp)
    np.minimum(lower, bins - 2, out=lower)
    upper_share -= lower
    counts = np.bincount(lower, weights=1.0 - upper_share, minlength=bins)
    lower += 1
    counts += np.bincount(lower, weights=upper_share, minlength=bins)
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
    support: SupportEstimate | None = None  # externally estimated, optional


@dataclass(frozen=True)
class IngestionReport:
    """What the pipeline kept, dropped, clamped, and smoothed with."""

    segments_total: int
    segments_dropped: list[tuple[int, int]]
    scalar_outliers_removed: int
    clamped_values: int
    support: SupportEstimate
    bandwidth_per_segment: list[float]


def build_sequence(
    series: RawSeries, config: IngestConfig | None = None, threads: int = 1
) -> tuple[DistributionalSequence, IngestionReport]:
    """Full ingestion: filter, support, segment, then normalize and fit a
    KDE per window, on ``threads`` workers (0 = every usable CPU).

    Beyond the series, memory holds a keep mask, one window-id column while
    segmenting, and the samples of the windows being fitted: no filtered
    or normalized copy of the whole series is made.
    """
    config = config or IngestConfig()
    grid = Grid(config.grid_nodes)

    values = series.values
    keep = boxplot_keep_mask(values, config.whisker)
    # The estimated support depends on the extremes of the kept values only.
    support = config.support or estimate_support(
        [values.min(where=keep, initial=np.inf), values.max(where=keep, initial=-np.inf)],
        config.margin_fraction)
    seg = segment(series, config.window_seconds, config.min_count, keep=keep)
    if len(seg.slices) < 4:
        raise DegenerateInputError(
            f"only {len(seg.slices)} usable segments; need at least 4"
        )

    single = [j for j, count in zip(seg.segment_indices, seg.counts) if count < 2]
    if config.bandwidth is None and single:
        raise StructuralError(f"window {single[0]} holds 1 sample, too few for the automatic "
                              "bandwidth; raise min_count to 2 or give a fixed bandwidth")
    rows = np.empty((len(seg.slices), grid.node_count))
    bandwidths = [config.bandwidth] * len(seg.slices)

    def fill(i: int) -> None:
        window = seg.slices[i]
        unit = normalize(values[window][keep[window]], support)
        if config.bandwidth is None:
            bandwidths[i] = silverman_bandwidth(unit)
        rows[i] = kde(unit, grid, bandwidths[i]).values

    parallel_map(fill, range(len(seg.slices)), threads)
    report = IngestionReport(
        segments_total=len(seg.slices) + len(seg.dropped),
        segments_dropped=seg.dropped,
        scalar_outliers_removed=keep.size - int(np.count_nonzero(keep)),
        clamped_values=count_outside_support(values, support, keep=keep),
        support=support,
        bandwidth_per_segment=[float(b) for b in bandwidths],
    )
    return DistributionalSequence(grid, rows), report
