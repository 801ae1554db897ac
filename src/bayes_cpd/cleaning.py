"""Robust outlier removal around change-point detection.

Two layers: a classic boxplot filter for scalar samples, and a
distributional outlier detector that flags whole densities.  The cleaning
pipeline removes flagged densities, detects on the remainder, and maps the
estimated break back to original indexing, so reported change-points
always refer to positions in the uncleaned sequence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace as dc_replace
from typing import Protocol

import numpy as np

from .engine import DetectionResult, DistributionalSequence, check_settings, detect
from .errors import DegenerateInputError, StructuralError

DEFAULT_WHISKER = 1.5


def boxplot_keep_mask(samples: np.ndarray, whisker: float = DEFAULT_WHISKER) -> np.ndarray:
    """Boolean mask of samples inside [Q1 - w*IQR, Q3 + w*IQR].

    Quartiles are linear interpolations of the order statistics.  Fewer
    than 4 samples: everything kept, with a warning.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if not whisker > 0:
        raise StructuralError(f"whisker must be positive, got {whisker}")
    if samples.size < 4:
        warnings.warn("fewer than 4 samples; boxplot filter is a pass-through")
        return np.ones(samples.shape, dtype=bool)
    q1, q3 = np.percentile(samples, [25, 75])
    iqr = q3 - q1
    lo, hi = q1 - whisker * iqr, q3 + whisker * iqr
    return (samples >= lo) & (samples <= hi)


class OutlierDetector(Protocol):
    """A detector sees only the sequence and returns 1-based flagged indices."""

    name: str
    whisker: float

    def flag(self, seq: DistributionalSequence) -> tuple[int, ...]: ...


class ClrMedianDistanceDetector:
    """Flag densities unusually far (in L2) from the pointwise clr median.

    Distances from the median curve are screened with an upper boxplot
    fence only: small distances mean "close to the consensus" and are
    never outlying.
    """

    name = "clr-median-distance"

    def __init__(self, whisker: float = DEFAULT_WHISKER):
        if not whisker > 0:
            raise StructuralError(f"whisker must be positive, got {whisker}")
        self.whisker = whisker

    def flag(self, seq: DistributionalSequence) -> tuple[int, ...]:
        mat = seq.clr_matrix()
        median_curve = np.median(mat, axis=0)
        diff = mat - median_curve
        distances = np.sqrt((diff * diff) @ seq.grid.weights)
        q1, q3 = np.percentile(distances, [25, 75])
        fence = q3 + self.whisker * (q3 - q1)
        return tuple(int(i) + 1 for i in np.nonzero(distances > fence)[0])


@dataclass(frozen=True)
class CleaningReport:
    """Which original indices were removed, which kept, and by whom.

    ``removed_indices`` and ``kept_indices`` partition 1..n; kept indices
    stay ascending so position j of the cleaned sequence corresponds to
    original index ``kept_indices[j - 1]``.
    """

    removed_indices: tuple[int, ...]
    kept_indices: tuple[int, ...]
    detector: str
    params: dict

    def map_position(self, position: int) -> int:
        """Original index of 1-based position ``position`` in the cleaned sequence."""
        return self.kept_indices[position - 1]


def detect_distributional_outliers(
    seq: DistributionalSequence,
    detector: OutlierDetector | None = None,
) -> tuple[int, ...]:
    """Ascending 1-based indices of densities flagged by the detector."""
    detector = detector or ClrMedianDistanceDetector()
    flagged = detector.flag(seq)
    if any(not 1 <= i <= seq.n for i in flagged):
        raise StructuralError(f"detector returned out-of-range indices: {flagged}")
    return tuple(sorted(set(int(i) for i in flagged)))


def clean(
    seq: DistributionalSequence,
    detector: OutlierDetector | None = None,
) -> CleaningReport:
    """Partition 1..n into the densities the detector flags and the rest.

    Raises :class:`DegenerateInputError` when fewer than 4 densities
    would remain, since nothing can be detected on the remainder.
    """
    detector = detector or ClrMedianDistanceDetector()
    removed = detect_distributional_outliers(seq, detector)
    flagged = set(removed)
    kept = tuple(i for i in range(1, seq.n + 1) if i not in flagged)
    if len(kept) < 4:
        raise DegenerateInputError(
            f"cleaning removed {len(removed)} of {seq.n} densities; "
            "fewer than 4 remain"
        )
    return CleaningReport(
        removed_indices=removed,
        kept_indices=kept,
        detector=detector.name,
        params={"whisker": detector.whisker},
    )


def clean_and_detect(
    seq: DistributionalSequence,
    detector: OutlierDetector | None = None,
    **detect_kwargs,
) -> tuple[CleaningReport, DetectionResult]:
    """Remove flagged densities, detect on the remainder, restore indexing.

    The detection settings are checked first, so a bad setting fails the
    same way with cleaning as without it, whatever cleaning would remove.
    """
    check_settings(**{k: v for k, v in detect_kwargs.items() if k not in ("seed", "threads")})
    report = clean(seq, detector)
    result = detect(seq.subsequence(report.kept_indices), **detect_kwargs)
    return report, dc_replace(result, k_hat=report.map_position(result.k_hat))
