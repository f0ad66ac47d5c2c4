"""Exception types shared across the library, and the numeric domains of its inputs."""

import math
from typing import Callable, NamedTuple


class Domain(NamedTuple):
    """The range of one kind of input number: its words in an error, and its test."""

    words: str
    test: Callable[[float], bool]

    def check(self, value, what: str) -> float:
        """``value`` as a float, unless it is not finite or fails the test: then a ValueError."""
        try:
            x = float(value)
        except OverflowError:  # an int past the float range reads as the infinity of its sign
            x = math.inf if value > 0 else -math.inf
        if not (math.isfinite(x) and self.test(x)):
            raise ValueError(f"{what} must be finite and {self.words}, not {x}")
        return x


# Every probability, correlation, rate and cost that a reader takes is checked by one of these.
PROBABILITY = Domain("in [0, 1]", lambda x: 0.0 <= x <= 1.0)
CORRELATION = Domain("in [0, 1)", lambda x: 0.0 <= x < 1.0)
SIGNED_CORRELATION = Domain("in [-1, 1]", lambda x: -1.0 <= x <= 1.0)
RATE = Domain("in [0, 0.5)", lambda x: 0.0 <= x < 0.5)
POSITIVE = Domain("positive", lambda x: x > 0.0)
NONNEGATIVE = Domain("nonnegative", lambda x: x >= 0.0)


class NetvoiError(Exception):
    """Base class for all library-specific errors."""


class InvalidStateError(NetvoiError, ValueError):
    """A state mask sets bits beyond the component count."""


class NonMonotoneError(NetvoiError, ValueError):
    """A truth table flips the system off when a component comes up."""


class ConditioningError(NetvoiError, ValueError):
    """Conditioning on an event of probability zero."""


class DegenerateObservationError(NetvoiError, ValueError):
    """The inspection outcome is certain, so no posterior split exists."""


class IncomparableIntervalsError(NetvoiError, ValueError):
    """Posterior intervals built from different priors cannot be compared."""


class InfeasibleCorrelationError(NetvoiError, ValueError):
    """No joint distribution realizes the requested marginals and correlation."""


class NotApplicableError(NetvoiError, ValueError):
    """The requested shortcut does not apply to this input."""


class SizeCapError(NetvoiError, RuntimeError):
    """The instance exceeds the size cap for exact analysis."""


class ScenarioError(NetvoiError, ValueError):
    """A scenario document failed validation.

    Carries every detected problem so callers can report them all at once.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
