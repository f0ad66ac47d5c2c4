"""Component-level maintenance optimization and inspection values.

Maintenance plans pack into integer masks like states do: bit i set means
component i gets replaced. Repairs are perfect, so applying plan A to
state s yields ``s | A``; a plan's expected loss is the residual failure
risk plus the summed repair costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Independent, JointDistribution
from .errors import InfeasibleCorrelationError, NotApplicableError
from .inference import (ALARM, SILENCE, InspectionModel, _outcomes, _posterior_mean,
                        posterior_given_observation)
from .model import _bit_sums, _halves, check_state
from .reports import PosteriorActionTable, VoIReport

FRECHET_TOL = 1e-12
TIE_TOL = 1e-12
# Plans that are structurally equivalent (say, symmetric repairs) land within
# float-summation noise of each other; losses this close count as tied so the
# lowest-mask rule actually bites.
PLAN_TIE_RTOL = 1e-9
# Bits one dense plan-risk operator covers: a 2^W x 2^W matrix, one matmul.
# Adjacent small blocks fuse into chunks of this width; wider or scattered
# blocks recurse on the restriction lattice down to operators of this width.
CHUNK_BITS = 4


@dataclass(frozen=True)
class LocalCostModel:
    """Failure cost plus one replacement cost per component."""

    c_fail: float
    c_repair: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c_repair", tuple(float(c) for c in self.c_repair))
        if not 0.0 < self.c_fail < math.inf:
            raise ValueError(f"failure cost {self.c_fail} must be positive and finite")
        if not all(0.0 <= c < math.inf for c in self.c_repair):
            raise ValueError("repair costs must be finite and nonnegative")

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


def _check_setup(net, dist, costs):
    if net.n_components != dist.n_components:
        raise ValueError("network and distribution disagree on the component count")
    if costs.n_components != net.n_components:
        raise ValueError("cost model and network disagree on the component count")


def plan_expected_loss(net, dist: JointDistribution, plan: int,
                       costs: LocalCostModel) -> float:
    """Residual failure risk after the plan plus its repair bill, by plan-by-state enumeration."""
    _check_setup(net, dist, costs)
    check_state(plan, net.n_components)
    table = net.truth_table()
    masks = np.arange(table.size, dtype=np.int64)
    risk = costs.c_fail * float(dist.pmf_vector()[~table[masks | plan]].sum())
    return risk + repair_cost(plan, costs)


def plan_failure_risks(net, dist: JointDistribution) -> np.ndarray:
    """Post-repair system failure probability for every plan mask.

    Plan risk is linear in the pmf, and a product of independent blocks
    makes it a product of per-block operators on the failure indicator.
    Blocks on adjacent bits fuse into chunks of up to ``CHUNK_BITS`` bits,
    each applied as one dense 2^w x 2^w matrix: 2^N * 2^w multiply-adds per
    chunk, so Theta(N 2^N) for independent components. A wider or scattered
    block runs the restriction-lattice sweep along its own bits, vectorised
    over all other bits: Theta(2^N * 1.5^k) for k bits, so Theta(3^N) for an
    explicit table, instead of the Theta(4^N) plan-by-state enumeration.
    """
    if dist.n_components != net.n_components:
        raise ValueError("network and distribution disagree on the component count")
    risk = (~net.truth_table()).astype(np.float64)
    first, chunk = 0, np.ones(1)  # pending chunk: weights over bits first, first + 1, ...
    for members, table in sorted(dist.blocks(), key=lambda block: min(block[0])):
        k = len(members)
        if k > CHUNK_BITS or members != tuple(range(members[0], members[0] + k)):
            risk = _apply_block(risk, members, table)
            continue
        w = chunk.size.bit_length() - 1
        if members[0] != first + w or w + k > CHUNK_BITS:
            risk = _apply_chunk(risk, first, chunk)
            first, chunk = members[0], np.ones(1)
        # a product of independent blocks is itself a block
        chunk = np.multiply.outer(table, chunk).reshape(-1)
    return _apply_chunk(risk, first, chunk)


@functools.cache
def _or_table(r: int) -> np.ndarray:
    """0/1 table ``E[s, (t, a)] = [s | a == t]`` over r-bit states s, t and sub-plans a."""
    s = np.arange(1 << r)
    table = ((s[:, None, None] | s) == s[:, None]).astype(np.float64).reshape(1 << r, -1)
    table.flags.writeable = False
    return table


def _operator(p: np.ndarray, r: int) -> np.ndarray:
    """Dense plan-risk operator of weights ``p`` for the sub-plans of its low ``r`` bits.

    Returns M transposed, of shape (p.size, 2^r), where ``M[a, t]`` is the
    sum of p[s] over the states s with s | a = t: right-multiplying the
    failure indicator over t gives the failure mass of every sub-plan a.
    """
    return (p.reshape(-1, 1 << r) @ _or_table(r)).reshape(p.size, 1 << r)


def _apply_chunk(risk: np.ndarray, first: int, table: np.ndarray) -> np.ndarray:
    """Apply the weights ``table`` over bits first, first + 1, ... as one matmul."""
    if table.size == 1:
        return risk
    m_t = _operator(table, table.size.bit_length() - 1)
    if first == 0:
        return (risk.reshape(-1, table.size) @ m_t).reshape(-1)
    return (m_t.T @ risk.reshape(-1, table.size, 1 << first)).reshape(-1)


def _apply_block(risk: np.ndarray, members, table: np.ndarray) -> np.ndarray:
    """Apply a wide or scattered block by the lattice sweep along its bits."""
    n = risk.size.bit_length() - 1
    k = len(members)
    # Bring the block's bits last, member 0 lowest, as the columns of f.
    src = [n - 1 - m for m in members]
    dst = list(range(n - 1, n - 1 - k, -1))
    cube = np.moveaxis(risk.reshape((2,) * n), src, dst)
    f = cube.reshape(-1, 1 << k)
    out = np.empty_like(f)
    _sweep(table, f, k, 0, out)
    return np.moveaxis(out.reshape(cube.shape), dst, src).reshape(-1)


def _sweep(p: np.ndarray, f: np.ndarray, r: int, plan: int, out: np.ndarray) -> None:
    """Lattice sweep of one block: ``out[:, A] = sum_s p[s] * f[:, s | A]`` for all A.

    Sweeps the block's bits from the highest down, branching on whether the
    plan repairs them. Repairing a bit sums it out of the weights ``p`` and
    keeps only the working half of the columns of ``f``; leaving it keeps
    both for the final contraction, so every plan costs 2^(bits left alone).
    The last ``CHUNK_BITS`` bits are one dense operator (``_operator``) over
    all their sub-plans, with as many rows as ``f`` has columns.
    """
    if r <= CHUNK_BITS:
        out[:, plan:plan + (1 << r)] = f @ _operator(p, r)
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
    return costs.c_fail * plan_failure_risks(net, dist) + _bit_sums(costs.c_repair)


def _cheapest(losses, c_fail: float, plans=None) -> tuple[int, float]:
    """Lowest-mask plan within ``PLAN_TIE_RTOL``·c_fail of the least loss, and its loss.

    ``losses[k]`` prices plan k, or ``plans[k]`` when given in ascending order.
    """
    losses = np.asarray(losses)
    best = int(np.argmax(losses <= losses.min() + PLAN_TIE_RTOL * c_fail))
    return best if plans is None else plans[best], float(losses[best])


def optimal_plan(net, dist: JointDistribution, costs: LocalCostModel) -> tuple[int, float]:
    """Cheapest plan and its loss; ties resolve to the lowest mask."""
    return _cheapest(plan_losses(net, dist, costs), costs.c_fail)


def posterior_action_table(net, dist: JointDistribution, insp: InspectionModel,
                           costs: LocalCostModel) -> PosteriorActionTable:
    """Re-optimized plan for each inspected component and outcome."""
    return voi_local(net, dist, insp, costs).action_table


def _report(metric: str, prior_plan: int, prior_loss: float, rows) -> VoIReport:
    """Report of per-component (silence row, alarm row, value), each row a (plan, loss)."""
    silence, alarm, voi = zip(*rows)
    (silence_plans, silence_losses), (alarm_plans, alarm_losses) = zip(*silence), zip(*alarm)
    return VoIReport(metric=metric, prior_loss=prior_loss,
                     posterior_loss=tuple(prior_loss - v for v in voi), voi=voi,
                     prior_plan=prior_plan,
                     action_table=PosteriorActionTable(silence_plans, alarm_plans,
                                                       silence_losses, alarm_losses))


def voi_local(net, dist: JointDistribution, insp: InspectionModel,
              costs: LocalCostModel) -> VoIReport:
    """Inspection values under full posterior plan re-optimization.

    Each outcome prices every plan under ``posterior_given_observation``.
    """
    prior_plan, prior_loss = optimal_plan(net, dist, costs)
    repair = _bit_sums(costs.c_repair)
    rows = []
    for i in range(net.n_components):
        # a certain outcome carries no news: both rows stay at the prior plan and loss
        row = {SILENCE: (prior_plan, prior_loss), ALARM: (prior_plan, prior_loss)}
        value = 0.0
        for y, p_y in _outcomes(dist, i, insp):
            post = posterior_given_observation(dist, i, y, insp)
            losses = costs.c_fail * plan_failure_risks(net, post) + repair
            row[y] = _cheapest(losses, costs.c_fail)
            # the prior loss of the prior plan is the mixture of its posterior
            # losses, so an outcome that keeps that plan adds exactly 0
            value += p_y * (float(losses[prior_plan]) - row[y][1])
        rows.append((row[SILENCE], row[ALARM], value))
    return _report("local", prior_plan, prior_loss, rows)


def voi_heuristic(net, dist: JointDistribution, insp: InspectionModel,
                  costs: LocalCostModel) -> VoIReport:
    """Inspection values when the posterior may only toggle the inspected repair.

    The prior plan stays fixed for uninspected components. An outcome that
    contradicts the prior action on the inspected component (alarm on a
    planned repair, silence on a planned do-nothing) confirms the plan;
    otherwise the exact posterior losses of keeping the plan and of
    flipping just that one action are compared and the cheaper executed.
    """
    return _voi_heuristic(net, dist, insp, costs, *optimal_plan(net, dist, costs))


def _voi_heuristic(net, dist, insp, costs, prior_plan: int, prior_loss: float) -> VoIReport:
    """``voi_heuristic`` around the optimal prior plan and its loss, found by the caller."""
    pmf = dist.pmf_vector()
    fail = ~net.truth_table()
    masks = np.arange(fail.size, dtype=np.int64)
    kept = pmf * fail[masks | prior_plan]
    rows = []
    for i in range(net.n_components):
        flipped = prior_plan ^ (1 << i)
        # prior masses split by the state of component i; a posterior only
        # reweights the two halves, so no posterior pmf is formed
        prob = _halves(pmf, i)
        mass = {prior_plan: _halves(kept, i),
                flipped: _halves(pmf * fail[masks | flipped], i)}
        # a certain outcome carries no news: both rows stay at the prior plan and loss
        row = {SILENCE: (prior_plan, prior_loss), ALARM: (prior_plan, prior_loss)}
        value = 0.0
        for y, p_y in _outcomes(dist, i, insp):
            plans = sorted(mass) if y == (prior_plan >> i) & 1 else [prior_plan]
            loss = {plan: costs.c_fail * _posterior_mean(prob, mass[plan], i, y, insp)
                    + repair_cost(plan, costs) for plan in plans}
            row[y] = _cheapest(list(loss.values()), costs.c_fail, plans)
            # the prior loss of the kept plan is the mixture of its posterior
            # losses, so only a flipped outcome adds value
            value += p_y * (loss[prior_plan] - row[y][1])
        rows.append((row[SILENCE], row[ALARM], value))
    return _report("heuristic", prior_plan, prior_loss, rows)


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
