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
)
from .asymptotics import (
    AreResult,
    EfficacyResult,
    GrowthRegime,
    MomentSet,
    TestSpec,
    critical_point,
    efficacy,
    moments,
    pitman_are,
    predicted_power,
    standardization,
)
from .errors import (
    DegenerateSpacingError,
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
    null_distribution_study,
    power_study,
    sample_size_match,
    substream,
)
from .spacings import (
    SortedSample,
    SpacingsPlan,
    read_sample_file,
    statistic,
    validate_sample,
)
from .special_math import digamma, gamma_expectation
from .tuning import (
    BUILTIN_NAMES,
    TuningFunction,
    builtin,
    evaluate,
    from_name,
    make_power_divergence,
)

__version__ = "0.1.0"
