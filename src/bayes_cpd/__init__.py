"""Change-point detection for density-valued sequences via Bayes-space geometry."""

from .density import (
    ClrFunction,
    DensityFunction,
    Grid,
    b_add,
    b_dist,
    b_inner,
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
    CusumProfile,
    DetectionResult,
    DistributionalSequence,
    cusum_profile,
    detect,
    p_value,
    simulate_limit_samples,
)
from .cleaning import (
    CleaningReport,
    clean,
    clean_and_detect,
    detect_distributional_outliers,
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

__all__ = [
    # densities and their Bayes-space algebra
    "Grid", "DensityFunction", "ClrFunction", "integrate", "beta_density", "zero_avoid",
    "clr", "clr_inv", "b_add", "b_smul", "b_inner", "b_norm", "b_dist", "first_moment",
    # detection
    "DistributionalSequence", "CusumProfile", "DetectionResult", "cusum_profile", "detect",
    "simulate_limit_samples", "p_value",
    # cleaning
    "CleaningReport", "detect_distributional_outliers", "clean", "clean_and_detect",
    # ingestion
    "RawSeries", "SupportEstimate", "IngestConfig", "IngestionReport", "estimate_support",
    "normalize", "segment", "silverman_bandwidth", "kde", "build_sequence",
    # simulation studies
    "gen_sim1", "gen_model1", "gen_model2", "gen_model3", "gen_outliers", "contaminate",
    "ExperimentConfig", "ExperimentReport", "run_experiment",
]
