"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the physical domain of a formula."""


class InvalidGeometryError(ValueError):
    """Level-energy layout is unphysical (non-positive transition energy)."""


class DegenerateSteadyStateError(RuntimeError):
    """The generator admits more than one stationary state, typically
    because a block of levels is disconnected from the rest."""


class NumericalSolveError(RuntimeError):
    """The constrained linear solve did not reach the residual target."""


class StepSizeError(ValueError):
    """Integration step too large for the fastest rate in the generator."""


class VoltageUndefinedError(ValueError):
    """Contact populations vanish; the entropic voltage term diverges."""


class BoundaryMaximumError(RuntimeError):
    """Power maximum sits on the edge of the load-rate grid."""


class UndefinedEfficiencyError(ValueError):
    """Supplied power is not positive; efficiency has no meaning."""


class ConfigError(ValueError):
    """Bad key, value, or file in a run configuration."""


# Numerical failures, not input errors: the CLI exits 3 on them.
NUMERICAL_ERRORS = (NumericalSolveError, DegenerateSteadyStateError,
                    BoundaryMaximumError, VoltageUndefinedError,
                    UndefinedEfficiencyError, StepSizeError)
