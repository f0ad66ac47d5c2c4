"""Expected-loss envelopes over the system failure probability.

Each available system-level action induces a line in the failure
probability; taking the pointwise minimum over actions yields a concave
lower envelope. The regret subtracts the perfect-information line through
the envelope's endpoints, so it vanishes at 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NONNEGATIVE, POSITIVE, PROBABILITY


@dataclass(frozen=True)
class GlobalAction:
    """A system-level action: price paid plus the failure risk it leaves behind."""

    cost: float
    residual_risk: float

    def __post_init__(self):
        object.__setattr__(self, "cost", NONNEGATIVE.check(self.cost, "action cost"))
        object.__setattr__(self, "residual_risk",
                           PROBABILITY.check(self.residual_risk, "residual risk"))


class LossEnvelope:
    """Concave expected loss as a function of the system failure probability."""

    def value(self, p: float) -> float:
        raise NotImplementedError

    def regret(self, p: float) -> float:
        """Loss above the perfect-information line; zero at both ends."""
        line = p * self.value(1.0) + (1.0 - p) * self.value(0.0)
        rg = self.value(p) - line
        return rg if rg > 0.0 else 0.0


class QuadraticLoss(LossEnvelope):
    """Smooth reference envelope p * (1 - p)."""

    def value(self, p: float) -> float:
        p = PROBABILITY.check(p, "failure probability")
        return p * (1.0 - p)


class PiecewiseLinearLoss(LossEnvelope):
    """Lower envelope of action lines: the minimum of ``intercept + slope * p``.

    Lines come as (slope, intercept) pairs. Documents list a handful of
    actions, so each query takes the minimum over all of them.
    """

    def __init__(self, lines):
        self._lines = tuple((float(slope), float(intercept)) for slope, intercept in lines)
        if not self._lines:
            raise ValueError("need at least one line")
        if not all(-math.inf < v < math.inf for line in self._lines for v in line):
            raise ValueError("line slopes and intercepts must be finite")

    @classmethod
    def from_actions(cls, actions, c_fail: float):
        """Envelope induced by system-level actions under failure cost c_fail."""
        c_fail = POSITIVE.check(c_fail, "failure cost")
        return cls((a.residual_risk * c_fail, a.cost) for a in actions)

    def value(self, p: float) -> float:
        p = PROBABILITY.check(p, "failure probability")
        return min(b + m * p for m, b in self._lines)


class BinaryActionLoss(PiecewiseLinearLoss):
    """Choice between accepting the failure risk and one repair action.

    Doing nothing costs ``c_fail * p``; repairing costs ``c_repair`` flat.
    The regret peaks at p = c_repair / c_fail, which must fall inside (0, 1).
    """

    def __init__(self, c_repair: float, c_fail: float):
        self.c_repair = float(c_repair)
        self.c_fail = POSITIVE.check(c_fail, "failure cost")
        if not 0.0 < self.peak < 1.0:
            raise ValueError(f"repair/failure cost ratio {self.peak} must lie strictly "
                             "inside (0, 1)")
        super().__init__([(self.c_fail, 0.0), (0.0, self.c_repair)])

    @property
    def peak(self) -> float:
        return self.c_repair / self.c_fail
