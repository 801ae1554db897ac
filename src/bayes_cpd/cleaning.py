"""Robust outlier removal around change-point detection.

One Tukey fence serves two layers: a classic boxplot filter for scalar
samples, and a distributional outlier rule that flags whole densities.
The cleaning pipeline removes flagged densities, detects on the
remainder, and maps the estimated break back to original indexing, so
reported change-points always refer to positions in the uncleaned
sequence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .engine import DetectionResult, DistributionalSequence, check_settings, detect
from .errors import DegenerateInputError, StructuralError

DEFAULT_WHISKER = 1.5

#: The name the cleaning report gives the distributional outlier rule.
OUTLIER_DETECTOR = "clr-median-distance"


def _check_whisker(whisker: float) -> None:
    if not whisker > 0:
        raise StructuralError(f"whisker must be positive, got {whisker}")


def tukey_fences(samples, whisker: float) -> tuple[float, float]:
    """The fences ``(Q1 - w*IQR, Q3 + w*IQR)`` of ``samples``.

    Quartiles are linear interpolations of the order statistics.  A
    whisker that is not positive, NaN included, raises
    :class:`StructuralError`.  A zero IQR gives ``(Q1, Q3)`` at any
    whisker, so an infinite whisker means no fence only when IQR > 0.
    """
    _check_whisker(whisker)
    q1, q3 = np.percentile(samples, [25, 75])
    reach = whisker * (q3 - q1) if q3 > q1 else 0.0  # w * 0 = 0, also for w = inf
    return q1 - reach, q3 + reach


def boxplot_keep_mask(samples: np.ndarray, whisker: float = DEFAULT_WHISKER) -> np.ndarray:
    """Boolean mask of the ``samples`` inside their :func:`tukey_fences`.

    Fewer than 4 samples, none included: everything kept, with a warning.
    The whisker is checked at every sample count.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 4:
        _check_whisker(whisker)
        warnings.warn("fewer than 4 samples; boxplot filter is a pass-through")
        return np.ones(samples.shape, dtype=bool)
    lo, hi = tukey_fences(samples, whisker)
    return (samples >= lo) & (samples <= hi)


@dataclass(frozen=True)
class CleaningReport:
    """Which original indices were removed and which kept, at which whisker.

    ``removed_indices`` and ``kept_indices`` partition 1..n; kept indices
    stay ascending so position j of the cleaned sequence corresponds to
    original index ``kept_indices[j - 1]``.
    """

    removed_indices: tuple[int, ...]
    kept_indices: tuple[int, ...]
    whisker: float

    def map_position(self, position: int) -> int:
        """Original index of 1-based position ``position`` in the cleaned sequence."""
        return self.kept_indices[position - 1]


def detect_distributional_outliers(
    seq: DistributionalSequence,
    whisker: float = DEFAULT_WHISKER,
) -> tuple[int, ...]:
    """Ascending 1-based indices of densities unusually far (in L2) from
    the pointwise clr median.

    Distances from the median curve are screened with the upper Tukey
    fence only: small distances mean "close to the consensus" and are
    never outlying.
    """
    mat = seq.clr_matrix()
    diff = mat - np.median(mat, axis=0)
    distances = np.sqrt((diff * diff) @ seq.grid.weights)
    _, hi = tukey_fences(distances, whisker)
    return tuple(int(i) + 1 for i in np.flatnonzero(distances > hi))


def clean(seq: DistributionalSequence, whisker: float = DEFAULT_WHISKER) -> CleaningReport:
    """Partition 1..n into the densities flagged as outliers and the rest.

    Raises :class:`DegenerateInputError` when fewer than 4 densities
    would remain, since nothing can be detected on the remainder, and
    :class:`StructuralError` for an infinite whisker, which the report
    could not record: strict JSON has no infinity.
    """
    if np.isinf(whisker):
        raise StructuralError(f"whisker must be finite for a cleaning report, got {whisker}")
    removed = detect_distributional_outliers(seq, whisker)
    flagged = set(removed)
    kept = tuple(i for i in range(1, seq.n + 1) if i not in flagged)
    if len(kept) < 4:
        raise DegenerateInputError(
            f"cleaning removed {len(removed)} of {seq.n} densities; "
            "fewer than 4 remain"
        )
    return CleaningReport(removed_indices=removed, kept_indices=kept, whisker=whisker)


def clean_and_detect(
    seq: DistributionalSequence,
    whisker: float = DEFAULT_WHISKER,
    **detect_kwargs,
) -> tuple[CleaningReport, DetectionResult]:
    """Remove flagged densities, detect on the remainder, restore indexing.

    The detection settings are checked first, so a bad setting fails the
    same way with cleaning as without it, whatever cleaning would remove.
    """
    check_settings(**{k: v for k, v in detect_kwargs.items() if k not in ("seed", "threads")})
    report = clean(seq, whisker)
    result = detect(seq.subsequence(report.kept_indices), **detect_kwargs)
    return report, dc_replace(result, k_hat=report.map_position(result.k_hat))
