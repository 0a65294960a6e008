"""Uniformity tests based on sum-functions of overlapping and disjoint
m-spacings: statistics, exact/asymptotic moments, efficacies, critical
points, Pitman relative efficiencies, and a reproducible Monte Carlo
validation harness."""

from .alternatives import (
    AlternativeModel,
    cdf,
    inverse_cdf,
    make_alternative,
    parse_path,
    sample_sorted,
)
from .asymptotics import (
    AreQuery,
    AreResult,
    EfficacyResult,
    GrowthRegime,
    MomentSet,
    TestSpec,
    clt_condition_ratio,
    closed_form_moments,
    critical_point,
    efficacy,
    effective_tuning,
    moments,
    mu_m,
    null_mean,
    pitman_are,
    predicted_power,
    shifted_mean,
    sigma2_overlapping,
    sigma_star2,
    standardization,
    tau_m,
)
from .errors import (
    DegenerateSpacingError,
    DerivativeUndefinedError,
    DomainError,
    InternalConsistencyError,
    PositivityError,
    QuadratureConvergenceError,
    SpacingsGofError,
    UnsupportedLimitError,
)
from .montecarlo import (
    MatchResult,
    SimulationConfig,
    SimulationReport,
    correlation_study,
    empirical_moment_check,
    null_distribution_study,
    power_study,
    sample_size_match,
    substream,
)
from .spacings import (
    SortedSample,
    SpacingsPlan,
    SpacingsVector,
    disjoint_spacings,
    overlapping_spacings,
    read_sample_file,
    statistic,
    validate_sample,
)
from .special_math import (
    EstimateWithError,
    digamma,
    gamma_expectation,
    gamma_joint_expectation,
    hurwitz_zeta2,
    log_gamma,
    mc_gamma_oracle,
)
from .tuning import (
    BUILTIN_NAMES,
    TuningFunction,
    affine_shift,
    builtin,
    evaluate,
    evaluate_derivative,
    from_name,
    make_power_divergence,
    pd_zero_anchored,
    scale_argument,
)

__version__ = "0.1.0"
