"""System-level inspection values and classical importance measures.

The system-level metric prices an inspection by mixing a concave loss
envelope over the two posterior failure probabilities it can produce.
Nested posterior intervals therefore rank components identically under
every envelope; the envelope only matters when intervals cross.
"""

from __future__ import annotations

import math

from .envelopes import LossEnvelope
from .inference import InspectionModel, _intervals
from .model import _check_sizes
from .reports import ImportanceReport, VoIReport

RRW_SATURATION_TOL = 1e-12


def _row(prior: float, interval, env: LossEnvelope):
    """Posterior loss, value and posterior regret of an interval; a certain one, None, saves 0."""
    if interval is None:  # a certain outcome carries no news: the prior's loss and regret
        return env.value(prior), 0.0, env.regret(prior)
    posterior = (interval.alarm_prob * env.value(interval.hi)
                 + (1.0 - interval.alarm_prob) * env.value(interval.lo))
    before = env.value(interval.prior)
    perfect = interval.prior * env.value(1.0) + (1.0 - interval.prior) * env.value(0.0)
    return posterior, before - posterior, posterior - perfect


def voi_global(net, dist, i, insp: InspectionModel, env: LossEnvelope):
    """Posterior expected loss, value and posterior regret of inspecting i: its report row."""
    prior, intervals = _intervals(net, dist, insp)
    dist._check_index(i)
    return _row(prior, intervals[i], env)


def rank_global(net, dist, insp: InspectionModel, env: LossEnvelope) -> VoIReport:
    prior, intervals = _intervals(net, dist, insp)
    posterior_loss, voi, posterior_regret = zip(*(_row(prior, iv, env) for iv in intervals))
    return VoIReport(metric="global", prior_loss=env.value(prior), posterior_loss=posterior_loss,
                     voi=voi, prior_regret=env.regret(prior), posterior_regret=posterior_regret)


def importance_measures(net, dist, insp: InspectionModel) -> ImportanceReport:
    """Birnbaum, criticality, risk-achievement and risk-reduction measures.

    All four read off the posterior system failure probabilities after an
    alarm (hi) or a silence (lo): BM = hi - lo, CRT = BM * p_i / prior,
    RAW = hi / prior and RRW = prior / lo, infinite when lo vanishes. With
    perfect inspections they reduce to the classical definitions.
    """
    prior, intervals = _intervals(net, dist, insp)
    if prior <= 0.0:
        raise ValueError("importance measures need a positive prior failure probability")
    bm, crt, raw, rrw = [], [], [], []
    for i, iv in enumerate(intervals):
        # a certain outcome carries no news: both posteriors are the prior
        lo, hi = (iv.lo, iv.hi) if iv else (prior, prior)
        p_i = dist.marginal_failure(i)
        bm.append(hi - lo)
        crt.append((hi - lo) * p_i / prior)
        raw.append(hi / prior)
        rrw.append(math.inf if lo <= RRW_SATURATION_TOL else prior / lo)
    return ImportanceReport(prior_failure=prior, bm=tuple(bm), crt=tuple(crt),
                            raw=tuple(raw), rrw=tuple(rrw))


def closed_form_rule(net, dist, insp: InspectionModel | None = None):
    """Predicted best inspection for pure series/parallel systems, else None.

    A pure parallel system always favors its most reliable component and a
    pure series system its most vulnerable one, for any dependence, provided
    the inspection accuracy is uniform.
    """
    _check_sizes(net, dist, *([] if insp is None else [insp]))
    if insp is not None and not insp.uniform:
        return None
    n = net.n_components
    probs = [dist.marginal_failure(i) for i in range(n)]
    if net.is_pure_parallel():
        return min(range(n), key=lambda i: (probs[i], i))
    if net.is_pure_series():
        return min(range(n), key=lambda i: (-probs[i], i))
    return None
