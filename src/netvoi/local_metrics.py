"""Component-level maintenance optimization and inspection values.

Maintenance plans pack into integer masks like states do: bit i set means
component i gets replaced. Repairs are perfect, so applying plan A to
state s yields ``s | A``; a plan's expected loss is the residual failure
risk plus the summed repair costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Independent, JointDistribution, _reweight, _reweight_blocks
from .errors import InfeasibleCorrelationError, NotApplicableError, SizeCapError
from .inference import (ALARM, SILENCE, InspectionModel, _alarm_prob_checked, _likelihood,
                        alarm_probability)
from .model import DEFAULT_COMPONENT_CAP, check_state
from .reports import PosteriorActionTable, VoIReport, normalize, rank_order

FRECHET_TOL = 1e-12
TIE_TOL = 1e-12
# Plans that are structurally equivalent (say, symmetric repairs) land within
# float-summation noise of each other; losses this close count as tied so the
# lowest-mask rule actually bites.
PLAN_TIE_RTOL = 1e-9
# Block bits the plan-risk sweep resolves by one gather instead of recursing:
# 4^3 cells against 3^3, for one numpy call instead of about 2^4.
SWEEP_LEAF_BITS = 3


@dataclass(frozen=True)
class LocalCostModel:
    """Failure cost plus one replacement cost per component."""

    c_fail: float
    c_repair: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c_repair", tuple(float(c) for c in self.c_repair))
        if self.c_fail <= 0.0:
            raise ValueError("failure cost must be positive")
        if any(c < 0.0 for c in self.c_repair):
            raise ValueError("repair costs must be nonnegative")

    @classmethod
    def uniform(cls, n: int, c_fail: float, c_repair: float) -> "LocalCostModel":
        return cls(c_fail, (float(c_repair),) * n)

    @property
    def n_components(self) -> int:
        return len(self.c_repair)


def apply_repairs(state: int, plan: int) -> int:
    """Post-repair state: replaced components come up, the rest keep their state."""
    return state | plan


def repair_cost(plan: int, costs: LocalCostModel) -> float:
    total = 0.0
    for i, c in enumerate(costs.c_repair):
        if (plan >> i) & 1:
            total += c
    return total


def _repair_cost_vector(costs: LocalCostModel) -> np.ndarray:
    n = costs.n_components
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(masks.size)
    for i, c in enumerate(costs.c_repair):
        out += np.where((masks >> i) & 1, c, 0.0)
    return out


def _check_setup(net, dist, costs):
    if net.n_components != dist.n_components:
        raise ValueError("network and distribution disagree on the component count")
    if costs.n_components != net.n_components:
        raise ValueError("cost model and network disagree on the component count")


def plan_expected_loss(net, dist: JointDistribution, plan: int,
                       costs: LocalCostModel) -> float:
    """Residual failure risk after the plan plus its repair bill."""
    _check_setup(net, dist, costs)
    check_state(plan, net.n_components)
    return _plan_loss(net, dist.pmf_vector(), plan, costs)


def _plan_loss(net, pmf: np.ndarray, plan: int, costs: LocalCostModel) -> float:
    table = net.truth_table()
    masks = np.arange(table.size, dtype=np.int64)
    risk = costs.c_fail * float(pmf[~table[masks | plan]].sum())
    return risk + repair_cost(plan, costs)


def plan_failure_risks(net, dist: JointDistribution) -> np.ndarray:
    """Post-repair system failure probability for every plan mask.

    Plan risk is linear in the pmf, and a product of independent blocks
    makes it a product of per-block operators on the failure indicator.
    Each block runs the restriction-lattice sweep along its own bits,
    vectorised over all other bits: Theta(2^N * sum of 1.5^k) for blocks
    of k bits, so Theta(N 2^N) for independent components and Theta(3^N)
    for an explicit table, instead of the Theta(4^N) plan-by-state
    enumeration.
    """
    if dist.n_components != net.n_components:
        raise ValueError("network and distribution disagree on the component count")
    return _plan_risks(net, dist.blocks())


def _plan_risks(net, blocks) -> np.ndarray:
    """Plan failure risks of the belief whose pmf is the product of ``blocks``."""
    n = net.n_components
    risk = (~net.truth_table()).astype(np.float64)
    for members, table in blocks:
        k = len(members)
        # Bring the block's bits last, member 0 lowest, as the columns of f.
        src = [n - 1 - m for m in members]
        dst = list(range(n - 1, n - 1 - k, -1))
        cube = np.moveaxis(risk.reshape((2,) * n), src, dst)
        f = cube.reshape(-1, 1 << k)
        out = np.empty_like(f)
        _sweep(table, f, k, 0, out)
        risk = np.moveaxis(out.reshape(cube.shape), dst, src).reshape(-1)
    return risk


def _sweep(p: np.ndarray, f: np.ndarray, r: int, plan: int, out: np.ndarray) -> None:
    """Lattice sweep of one block: ``out[:, A] = sum_s p[s] * f[:, s | A]`` for all A.

    Sweeps the block's bits from the highest down, branching on whether the
    plan repairs them. Repairing a bit sums it out of the weights ``p`` and
    keeps only the working half of the columns of ``f``; leaving it keeps
    both for the final contraction, so every plan costs 2^(bits left alone).
    The last ``SWEEP_LEAF_BITS`` bits are done in one gather over all their
    sub-plans a, reading column s | a for state s; the gathered array holds
    at most 2^SWEEP_LEAF_BITS times as many cells as ``f``.
    """
    if r <= SWEEP_LEAF_BITS:
        sub_plans = np.arange(1 << r)[:, None]
        out[:, plan:plan + (1 << r)] = f[:, np.arange(p.size) | sub_plans] @ p
        return
    _sweep(p, f, r - 1, plan, out)
    half = 1 << (r - 1)
    k = p.size >> r
    _sweep(p.reshape(k, 2, half).sum(axis=1).reshape(k * half),
           f.reshape(-1, k, 2, half)[:, :, 1, :].reshape(-1, k * half),
           r - 1, plan | half, out)


def plan_losses(net, dist: JointDistribution, costs: LocalCostModel) -> np.ndarray:
    """Expected loss of every plan mask under the current belief."""
    _check_setup(net, dist, costs)
    return costs.c_fail * plan_failure_risks(net, dist) + _repair_cost_vector(costs)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SizeCapError(
            f"exact plan optimization over {n} components exceeds the cap of {cap}; "
            f"raise the cap to analyse larger networks"
        )


def _cheapest(losses: np.ndarray, c_fail: float) -> tuple[int, float]:
    threshold = losses.min() + PLAN_TIE_RTOL * c_fail
    best = int(np.argmax(losses <= threshold))
    return best, float(losses[best])


def optimal_plan(net, dist: JointDistribution, costs: LocalCostModel,
                 cap: int = DEFAULT_COMPONENT_CAP) -> tuple[int, float]:
    """Cheapest plan and its loss; ties resolve to the lowest mask."""
    _check_setup(net, dist, costs)
    _check_cap(net.n_components, cap)
    return _cheapest(plan_losses(net, dist, costs), costs.c_fail)


def posterior_action_table(net, dist: JointDistribution, insp: InspectionModel,
                           costs: LocalCostModel,
                           cap: int = DEFAULT_COMPONENT_CAP) -> PosteriorActionTable:
    """Re-optimized plan for each inspected component and outcome.

    Each posterior is the prior's blocks with the likelihood multiplied
    into the one block that holds the inspected component.
    """
    _check_setup(net, dist, costs)
    _check_cap(net.n_components, cap)
    blocks = dist.blocks()
    repair = _repair_cost_vector(costs)
    plans = {SILENCE: [], ALARM: []}
    losses = {SILENCE: [], ALARM: []}
    for i in range(net.n_components):
        _alarm_prob_checked(dist, i, insp)
        for y in (SILENCE, ALARM):
            post = _reweight_blocks(blocks, i, *_likelihood(i, y, insp))
            plan, loss = _cheapest(costs.c_fail * _plan_risks(net, post) + repair,
                                   costs.c_fail)
            plans[y].append(plan)
            losses[y].append(loss)
    return PosteriorActionTable(
        silence_plans=tuple(plans[SILENCE]),
        alarm_plans=tuple(plans[ALARM]),
        silence_losses=tuple(losses[SILENCE]),
        alarm_losses=tuple(losses[ALARM]),
    )


def voi_local(net, dist: JointDistribution, insp: InspectionModel,
              costs: LocalCostModel, cap: int = DEFAULT_COMPONENT_CAP) -> VoIReport:
    """Inspection values under full posterior plan re-optimization."""
    _check_setup(net, dist, costs)
    prior_plan, prior_loss = optimal_plan(net, dist, costs, cap)
    table = posterior_action_table(net, dist, insp, costs, cap)
    posterior_loss, voi = [], []
    for i in range(net.n_components):
        h = alarm_probability(dist, i, insp)
        loss_i = (1.0 - h) * table.silence_losses[i] + h * table.alarm_losses[i]
        posterior_loss.append(loss_i)
        voi.append(prior_loss - loss_i)
    ranking = rank_order(voi)
    return VoIReport(
        metric="local",
        prior_loss=prior_loss,
        posterior_loss=tuple(posterior_loss),
        voi=tuple(voi),
        voi_normalized=normalize(voi),
        ranking=ranking,
        best=ranking[0],
        prior_plan=prior_plan,
        action_table=table,
    )


def voi_heuristic(net, dist: JointDistribution, insp: InspectionModel,
                  costs: LocalCostModel, cap: int = DEFAULT_COMPONENT_CAP) -> VoIReport:
    """Inspection values when the posterior may only toggle the inspected repair.

    The prior plan stays fixed for uninspected components. An outcome that
    contradicts the prior action on the inspected component (alarm on a
    planned repair, silence on a planned do-nothing) confirms the plan;
    otherwise the exact posterior losses of keeping the plan and of
    flipping just that one action are compared and the cheaper executed.
    """
    _check_setup(net, dist, costs)
    prior_plan, prior_loss = optimal_plan(net, dist, costs, cap)
    n = net.n_components
    pmf = dist.pmf_vector()
    silence_plans, alarm_plans, silence_losses, alarm_losses = [], [], [], []
    posterior_loss, voi = [], []
    for i in range(n):
        h = _alarm_prob_checked(dist, i, insp)
        prior_action = (prior_plan >> i) & 1
        losses = {}
        plans = {}
        for y in (SILENCE, ALARM):
            post = _reweight(pmf, i, *_likelihood(i, y, insp))
            keep = _plan_loss(net, post, prior_plan, costs)
            if y != prior_action:
                plans[y], losses[y] = prior_plan, keep
                continue
            flipped = prior_plan ^ (1 << i)
            flip = _plan_loss(net, post, flipped, costs)
            tied = abs(flip - keep) <= PLAN_TIE_RTOL * costs.c_fail
            if (tied and flipped < prior_plan) or (not tied and flip < keep):
                plans[y], losses[y] = flipped, flip
            else:
                plans[y], losses[y] = prior_plan, keep
        silence_plans.append(plans[SILENCE])
        alarm_plans.append(plans[ALARM])
        silence_losses.append(losses[SILENCE])
        alarm_losses.append(losses[ALARM])
        loss_i = (1.0 - h) * losses[SILENCE] + h * losses[ALARM]
        posterior_loss.append(loss_i)
        voi.append(prior_loss - loss_i)
    ranking = rank_order(voi)
    return VoIReport(
        metric="heuristic",
        prior_loss=prior_loss,
        posterior_loss=tuple(posterior_loss),
        voi=tuple(voi),
        voi_normalized=normalize(voi),
        ranking=ranking,
        best=ranking[0],
        prior_plan=prior_plan,
        action_table=PosteriorActionTable(
            silence_plans=tuple(silence_plans),
            alarm_plans=tuple(alarm_plans),
            silence_losses=tuple(silence_losses),
            alarm_losses=tuple(alarm_losses),
        ),
    )


def series_pair_policy(p1: float, p2: float, rho: float, peak: float) -> int:
    """Best component to inspect in a two-component series system.

    Components are dependent with marginal failure probabilities (p1, p2)
    and correlation rho; ``peak`` is the repair/failure cost ratio, at most
    one half so that replacing both components still beats a failure. A
    detected failure is always repaired; the uninspected component is then
    replaced whenever its conditional failure risk exceeds the repair cost.
    Returns 1 or 2, or 0 for a tie.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} not in [0, 1]")
    if not 0.0 < peak <= 0.5:
        raise ValueError(f"cost ratio {peak} must lie in (0, 0.5]")
    both = p1 * p2 + rho * math.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2))
    lo = max(0.0, p1 + p2 - 1.0)
    hi = min(p1, p2)
    if both < lo - FRECHET_TOL or both > hi + FRECHET_TOL:
        raise InfeasibleCorrelationError(
            f"correlation {rho} is infeasible for marginals ({p1}, {p2})"
        )
    both = min(max(both, lo), hi)

    def loss(p_i, p_j):
        cond_failed = both / p_i if p_i > 0.0 else 0.0
        cond_working = (p_j - both) / (1.0 - p_i) if p_i < 1.0 else 0.0
        repair_then = min(peak, cond_failed)
        leave_then = min(peak, cond_working)
        return p_i * peak + p_i * repair_then + (1.0 - p_i) * leave_then

    l1 = loss(p1, p2)
    l2 = loss(p2, p1)
    if abs(l1 - l2) <= TIE_TOL:
        return 0
    return 1 if l1 < l2 else 2


def cumulative_approx_voi(dist: JointDistribution, costs: LocalCostModel) -> tuple[float, ...]:
    """Per-component inspection value when risks simply add up.

    Treats the system as if each failed, unrepaired component cost c_fail
    on its own. Each inspection then prices as the bi-linear regret of a
    stand-alone repair decision, peaking at c_repair_i / c_fail. Requires
    independent components and perfect inspections.
    """
    if not isinstance(dist, Independent):
        raise NotApplicableError("the additive-risk shortcut needs independent components")
    if costs.n_components != dist.n_components:
        raise ValueError("cost model and distribution disagree on the component count")
    out = []
    for p, c_r in zip(dist.failure_probs, costs.c_repair):
        out.append(min(p * costs.c_fail, c_r) - p * c_r)
    return tuple(out)
