"""Bayesian updating of component beliefs from one binary inspection.

Outcome coding follows the emission table: an alarm (y = 0) flags the
component as damaged, a silence (y = 1) reports it working. A working
component raises a false alarm with probability ``eps_fa``; a damaged one
stays silent with probability ``eps_fs``. A posterior failure probability
reweights the halves of the pmf and of the failure mass split by the
inspected component's state, so no posterior pmf is formed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

from .distributions import JointDistribution, _failure_masses, _failure_prob, _reweight_blocks
from .errors import (RATE, ConditioningError, DegenerateObservationError,
                     IncomparableIntervalsError)
from .model import _check_sizes, _fold_halves

ALARM = 0
SILENCE = 1

PRIOR_MATCH_TOL = 1e-9


def _normalize_rates(value, what):
    """Checked rates as a tuple, and whether ``value`` is one rate: any 0-d real, NumPy's too."""
    scalar = isinstance(value, numbers.Real) or getattr(value, "ndim", None) == 0
    rates = tuple(RATE.check(r, what) for r in ((value,) if scalar else value))
    if not rates:
        raise ValueError(f"{what} list is empty")
    return rates, scalar


@dataclass(frozen=True)
class InspectionModel:
    """False-alarm and false-silence rates, uniform or per component."""

    eps_fa: object = 0.0
    eps_fs: object = 0.0

    def __post_init__(self):
        fa, fa_scalar = _normalize_rates(self.eps_fa, "false-alarm rate")
        fs, fs_scalar = _normalize_rates(self.eps_fs, "false-silence rate")
        if not (fa_scalar or fs_scalar) and len(fa) != len(fs):
            raise ValueError(f"{len(fa)} false-alarm rates but {len(fs)} false-silence rates")
        object.__setattr__(self, "eps_fa", fa[0] if fa_scalar else fa)
        object.__setattr__(self, "eps_fs", fs[0] if fs_scalar else fs)

    @property
    def uniform(self) -> bool:
        """Whether each rate takes one value, given as a number or as a list."""
        return all(isinstance(r, float) or len(set(r)) == 1 for r in (self.eps_fa, self.eps_fs))

    @property
    def n_components(self) -> int | None:
        """Components the per-component rates cover; None when both rates are uniform."""
        rates = [r for r in (self.eps_fa, self.eps_fs) if isinstance(r, tuple)]
        return len(rates[0]) if rates else None

    def fa(self, i: int) -> float:
        return self.eps_fa if isinstance(self.eps_fa, float) else self.eps_fa[i]

    def fs(self, i: int) -> float:
        return self.eps_fs if isinstance(self.eps_fs, float) else self.eps_fs[i]

    def k(self, i: int) -> float:
        """Sensitivity constant 1 - eps_fa - eps_fs; positive by construction."""
        return 1.0 - self.fa(i) - self.fs(i)


PERFECT_INSPECTION = InspectionModel(0.0, 0.0)


def alarm_probability(dist: JointDistribution, i: int, insp: InspectionModel) -> float:
    """Marginal probability that inspecting component i raises an alarm."""
    _check_sizes(dist, insp)
    return _alarm_probability(dist.marginal_failure(i), i, insp)


def _alarm_probability(q_failed: float, i: int, insp: InspectionModel) -> float:
    """``alarm_probability`` of component i from its marginal failure probability."""
    return insp.fa(i) + insp.k(i) * q_failed


def _outcomes(dist: JointDistribution, i: int, insp: InspectionModel) -> tuple:
    """Each outcome on component i as (y, probability, likelihood); () when one is certain.

    A certain outcome carries no news: every metric prices that inspection
    at 0, and ``posterior_interval`` has no second posterior to report. An
    outcome is possible when its posterior denominator w_f·q0 + w_w·q1 over
    i's marginal halves is positive, not when its rounded probability is: an
    explicit table sums to 1 only within EXPLICIT_SUM_TOL, so a certain
    alarm can have probability 1 - 1e-16.
    """
    q_failed, q_working = dist._marginal(i)
    h = _alarm_probability(q_failed, i, insp)
    outcomes = ((SILENCE, 1.0 - h, _likelihood(i, SILENCE, insp)),
                (ALARM, h, _likelihood(i, ALARM, insp)))
    possible = all(w_f * q_failed + w_w * q_working > 0.0 for _, _, (w_f, w_w) in outcomes)
    return outcomes if possible else ()


def _likelihood(i: int, y: int, insp: InspectionModel) -> tuple[float, float]:
    """Probability of outcome y on component i if it failed, and if it works."""
    if y == SILENCE:
        return insp.fs(i), 1.0 - insp.fa(i)
    if y == ALARM:
        return 1.0 - insp.fs(i), insp.fa(i)
    raise ValueError(f"outcome must be {ALARM} (alarm) or {SILENCE} (silence)")


def posterior_given_observation(dist: JointDistribution, i: int, y: int,
                                insp: InspectionModel) -> JointDistribution:
    """Belief over component states after observing outcome y on component i.

    The prior's blocks, with the likelihood multiplied into the one that
    holds component i.
    """
    _check_sizes(dist, insp)
    dist._check_index(i)
    return JointDistribution(_reweight_blocks(dist.blocks(), i, *_likelihood(i, y, insp)))


def _posterior_mean(prob, mass, likelihood: tuple[float, float]):
    """Posterior mean, after an outcome on component i, of a quantity with prior masses ``mass``.

    ``prob`` and ``mass`` are split by the state of component i, failed then
    working: the outcome's likelihood only reweights the two halves, so no
    posterior is formed. The halves of ``mass`` may be arrays, such as
    ``voi_local``'s plan risks.
    """
    w_failed, w_working = likelihood
    total = w_failed * prob[0] + w_working * prob[1]
    if total <= 0.0:
        raise ConditioningError("observation has probability zero")
    return (w_failed * mass[0] + w_working * mass[1]) / total


def posterior_system_failure(net, dist, i, y, insp) -> float:
    _check_sizes(net, dist, insp)
    dist._check_index(i)
    _, prob, fail = _split_masses(net, dist)
    return _posterior_mean(prob[i], fail[i], _likelihood(i, y, insp))


def _split_masses(net, dist, plan: int = 0) -> tuple:
    """Failure probability after ``plan``, and every component's halves of the pmf and that mass.

    One fold each (``_fold_halves``): the failure mass folds into itself,
    then the pmf into the mass's storage, so neither fold takes memory beyond
    that of forming the mass. The pmf's halves are not ``dist._marginal``:
    the fold is the marginal that the mass carries, while a shared-cause
    group reports the p it was given.
    """
    pmf, mass = _failure_masses(net, dist, plan)
    prior = _failure_prob(mass)
    fail = _fold_halves(mass, mass)
    return prior, _fold_halves(pmf, mass), fail


@dataclass(frozen=True)
class PosteriorInterval:
    """Range of system failure probabilities spanned by one inspection.

    ``lo`` follows a silence, ``hi`` an alarm; mixing them with the alarm
    probability recovers the prior.
    """

    lo: float
    hi: float
    prior: float
    alarm_prob: float

    def contains(self, other: "PosteriorInterval") -> bool:
        return self.lo <= other.lo and self.hi >= other.hi


def posterior_interval(net, dist, i, insp) -> PosteriorInterval:
    """Posterior system failure probabilities after each outcome on component i.

    The prior is their mixture by the alarm probability, so it costs no
    pass of its own.
    """
    intervals = _intervals(net, dist, insp)[1]
    dist._check_index(i)
    return _reported(intervals[i], dist, i, insp)


def _intervals(net, dist, insp: InspectionModel) -> tuple:
    """The prior failure probability and every interval (None where certain) from one fold."""
    _check_sizes(net, dist, insp)
    prior, prob, fail = _split_masses(net, dist)
    return prior, [_interval(prob[i], fail[i], dist, i, insp) for i in range(net.n_components)]


def _interval(prob, fail, dist, i, insp) -> PosteriorInterval | None:
    """Interval of component i from its pmf and failure-mass halves; None if it is certain."""
    outcomes = _outcomes(dist, i, insp)
    if not outcomes:
        return None
    h = outcomes[1][1]
    lo, hi = (_posterior_mean(prob, fail, likelihood) for _, _, likelihood in outcomes)
    return PosteriorInterval(lo=min(max(lo, 0.0), 1.0), hi=min(max(hi, 0.0), 1.0),
                             prior=(1.0 - h) * lo + h * hi, alarm_prob=h)


def _reported(interval, dist, i, insp) -> PosteriorInterval:
    """``interval`` of component i, unless a certain outcome left it None: then raise."""
    if interval is None:  # one of the two posteriors does not exist
        raise DegenerateObservationError(f"inspecting component {i} has a certain outcome "
                                         f"(alarm probability {alarm_probability(dist, i, insp)})")
    return interval


class Dominance(Enum):
    FIRST = "first"
    SECOND = "second"
    MUTUAL = "mutual"
    NOT_NESTED = "not-nested"


def interval_dominates(a: PosteriorInterval, b: PosteriorInterval) -> Dominance:
    """Which interval contains the other; equal endpoints count both ways."""
    if abs(a.prior - b.prior) > PRIOR_MATCH_TOL:
        raise IncomparableIntervalsError(
            f"priors differ ({a.prior} vs {b.prior}); intervals are not comparable"
        )
    a_contains = a.contains(b)
    b_contains = b.contains(a)
    if a_contains and b_contains:
        return Dominance.MUTUAL
    if a_contains:
        return Dominance.FIRST
    if b_contains:
        return Dominance.SECOND
    return Dominance.NOT_NESTED
