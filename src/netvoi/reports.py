"""Result containers shared by the ranking metrics."""

from __future__ import annotations

import math
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
    top = max(vals)
    return tuple(0.0 if top <= 0.0 else v / top for v in vals)


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

    ``voi[i]`` is the expected loss reduction from inspecting component i;
    ``voi_normalized``, ``ranking`` and ``best`` (the argmax, ties to the
    lower index) derive from it. Regret columns are populated by the
    system-level metric only; plan columns by the component-level ones.
    """

    metric: str
    prior_loss: float
    posterior_loss: tuple[float, ...]
    voi: tuple[float, ...]
    prior_regret: float | None = None
    posterior_regret: tuple[float, ...] | None = None
    prior_plan: int | None = None
    action_table: PosteriorActionTable | None = None

    @property
    def voi_normalized(self) -> tuple[float, ...]:
        return normalize(self.voi)

    @property
    def ranking(self) -> tuple[int, ...]:
        return rank_order(self.voi)

    @property
    def best(self) -> int:
        return self.ranking[0]


@dataclass(frozen=True)
class ImportanceReport:
    """Classical importance measures built from the posterior intervals.

    ``rankings`` (one per measure) and ``rrw_is_infinite`` derive from the
    value columns.
    """

    prior_failure: float
    bm: tuple[float, ...]
    crt: tuple[float, ...]
    raw: tuple[float, ...]
    rrw: tuple[float, ...]

    @property
    def rrw_is_infinite(self) -> tuple[bool, ...]:
        return tuple(math.isinf(v) for v in self.rrw)

    @property
    def rankings(self) -> dict:
        return {m: rank_order(self.values(m)) for m in ("bm", "crt", "raw", "rrw")}

    def values(self, measure: str) -> tuple[float, ...]:
        return getattr(self, measure)
