"""Change-point detection for density-valued sequences via Bayes-space geometry."""

from .density import (
    ClrFunction,
    DensityFunction,
    Grid,
    b_add,
    b_dist,
    b_inner,
    b_mean,
    b_norm,
    b_smul,
    beta_density,
    clr,
    clr_inv,
    first_moment,
    integrate,
    zero_avoid,
)
from .engine import (
    CovarianceEigen,
    CusumProfile,
    DetectionResult,
    DistributionalSequence,
    clr_cusum,
    covariance_eigen,
    cusum_profile,
    detect,
    p_value,
    residuals,
    simulate_limit_samples,
)
from .cleaning import (
    CleaningReport,
    ClrMedianDistanceDetector,
    clean,
    clean_and_detect,
    detect_distributional_outliers,
    scalar_boxplot_filter,
)
from .ingestion import (
    IngestConfig,
    IngestionReport,
    RawSeries,
    SupportEstimate,
    build_sequence,
    estimate_support,
    kde,
    normalize,
    segment,
    silverman_bandwidth,
)
from .simlab import (
    ExperimentConfig,
    ExperimentReport,
    contaminate,
    gen_model1,
    gen_model2,
    gen_model3,
    gen_outliers,
    gen_sim1,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
