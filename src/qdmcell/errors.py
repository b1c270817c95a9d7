"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the physical domain of a formula."""


class InvalidGeometryError(ValueError):
    """Level-energy layout is unphysical (non-positive transition energy)."""


class DegenerateSteadyStateError(RuntimeError):
    """The generator admits more than one stationary state.

    Typically caused by a disconnected block of levels; the offending
    blocks are attached as ``blocks`` (tuples of state-vector indices).
    """

    def __init__(self, message, blocks=()):
        super().__init__(message)
        self.blocks = tuple(tuple(b) for b in blocks)


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
