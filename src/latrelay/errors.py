"""Exception types shared across the toolkit."""


class LatrelayError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(LatrelayError):
    pass


class EnumerationBudgetExceeded(LatrelayError):
    """Exact enumeration would exceed the configured candidate budget."""


class RejectionBudgetExceeded(LatrelayError):
    """Rejection sampler failed to accept within the attempt budget."""


class NotNested(LatrelayError):
    pass


class NotACodeword(LatrelayError):
    pass


class InvalidRanks(LatrelayError):
    pass


class NotPrime(LatrelayError):
    pass


class Infeasible(LatrelayError):
    """The TWRC rates need a code rank above n, or the broadcast rate is
    below the bottleneck capacity."""


class NegativeArgument(LatrelayError):
    pass


class ScenarioViolation(LatrelayError):
    """Channel parameters fail the degradation condition of the scenario."""


class ConfigInvalid(LatrelayError):
    """Experiment configuration failed validation; message names the field."""


class EmptyData(LatrelayError):
    pass
