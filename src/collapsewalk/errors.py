"""Exception hierarchy for the toolkit.

Numerical-failure errors (NoRealRootError, MaxStepsExceededError, ...) map to
CLI exit code 1; argument problems map to exit code 2 via UsageError.
"""


class CollapseWalkError(Exception):
    """Base class for all toolkit errors."""


class AllZeroError(CollapseWalkError):
    """Amplitude vector has (numerically) zero norm and cannot be normalized."""


class TooFewStatesError(CollapseWalkError):
    """A state vector needs at least two components."""


class DegenerateGridError(CollapseWalkError):
    """Grid resolution too coarse: a positive weight quantized to zero."""


class MaxStepsExceededError(CollapseWalkError):
    """Walk hit the safety cap before reaching a vertex."""


class NumericOverflowError(CollapseWalkError):
    """Inputs outside the numerically representable range."""


class NoRealRootError(CollapseWalkError):
    """Normalization quadratic has no admissible real root."""


class RejectionStallError(CollapseWalkError):
    """Rejection sampler acceptance rate collapsed; invalid constants."""


class UsageError(CollapseWalkError):
    """Bad command-line arguments or configuration."""
