"""Exception types shared across the package."""


class SpacingsGofError(Exception):
    """Base class for all package errors."""


class DomainError(SpacingsGofError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureConvergenceError(SpacingsGofError, RuntimeError):
    """An iteration hit its cap without meeting its tolerance: adaptive
    quadrature at the node cap, or the inverse-CDF Newton iteration.

    Carries the last two quadrature estimates so a caller can inspect how
    far apart they were.
    """

    def __init__(self, message, last_estimates=None):
        super().__init__(message)
        self.last_estimates = last_estimates


class InternalConsistencyError(SpacingsGofError, RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


class DegenerateSpacingError(SpacingsGofError, ValueError):
    """A zero spacing met a tuning function that is singular at zero."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class PositivityError(SpacingsGofError, ValueError):
    """A contamination density 1 + delta*l(x) is not strictly positive."""


class UnsupportedLimitError(SpacingsGofError, ValueError):
    """Growth-regime relative-efficiency limits are only known for the
    power-divergence family (and its named members)."""
