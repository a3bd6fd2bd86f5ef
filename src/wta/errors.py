"""Exception taxonomy shared across the package."""


class WtaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WtaError):
    """Malformed or inconsistent configuration / input file."""


# graph construction
class SelfLoopError(WtaError):
    pass


class NonpositiveWeightError(WtaError):
    pass


class DuplicateEdgeError(WtaError):
    pass


class IndexOutOfRangeError(WtaError):
    pass


class InvalidProbabilityError(WtaError):
    pass


# dynamics / state handling
class DimensionMismatchError(WtaError):
    pass


class NegativeStateError(WtaError):
    pass


class EmptyStateError(WtaError):
    pass


class NonFiniteStateError(WtaError):
    """A state component is NaN or infinite."""


# integration
class PositivityFailureError(WtaError):
    """A step left the nonnegative orthant and halving could not recover it."""


# analysis
class NotSymmetricError(WtaError):
    pass


class NotEuError(WtaError):
    """Operation requires an equilibrium with adjacent equal-valued winners."""


class ComponentTooSmallError(WtaError):
    pass


# optimization
class TooManyCandidatesError(WtaError):
    pass
