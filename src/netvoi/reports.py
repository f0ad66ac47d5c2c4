"""Result containers shared by the ranking metrics."""

from __future__ import annotations

from dataclasses import dataclass

from .output import printed_value


def rank_order(values) -> tuple[int, ...]:
    """Indices sorted by descending printed value; ties go to the lower index.

    Values equal to the 12 digits the output prints count as tied, so
    summation noise never orders rows that print the same.
    """
    vals = [printed_value(v) for v in values]
    return tuple(sorted(range(len(vals)), key=lambda i: (-vals[i], i)))


def normalize(values) -> tuple[float, ...]:
    """Divide by the maximum; an all-nonpositive column maps to zeros."""
    vals = [float(v) for v in values]
    top = max(vals) if vals else 0.0
    if top <= 0.0:
        return tuple(0.0 for _ in vals)
    return tuple(v / top for v in vals)


@dataclass(frozen=True)
class PosteriorActionTable:
    """Chosen repair plan and its expected loss per inspected component and outcome."""

    silence_plans: tuple[int, ...]
    alarm_plans: tuple[int, ...]
    silence_losses: tuple[float, ...]
    alarm_losses: tuple[float, ...]


@dataclass(frozen=True)
class VoIReport:
    """Per-component inspection values under one metric.

    ``voi[i]`` is the expected loss reduction from inspecting component i,
    ``best`` the argmax with index-ascending tie-break. Regret columns are
    populated by the system-level metric only; plan columns by the
    component-level ones.
    """

    metric: str
    prior_loss: float
    posterior_loss: tuple[float, ...]
    voi: tuple[float, ...]
    voi_normalized: tuple[float, ...]
    ranking: tuple[int, ...]
    best: int
    prior_regret: float | None = None
    posterior_regret: tuple[float, ...] | None = None
    prior_plan: int | None = None
    action_table: PosteriorActionTable | None = None


@dataclass(frozen=True)
class ImportanceReport:
    """Classical importance measures built from the posterior intervals."""

    prior_failure: float
    bm: tuple[float, ...]
    crt: tuple[float, ...]
    raw: tuple[float, ...]
    rrw: tuple[float, ...]
    rrw_is_infinite: tuple[bool, ...]
    rankings: dict

    def values(self, measure: str) -> tuple[float, ...]:
        return getattr(self, measure)
