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

from .distributions import Independent, JointDistribution, _failure_masses, _fuse
from .errors import (NONNEGATIVE, POSITIVE, PROBABILITY, SIGNED_CORRELATION,
                     InfeasibleCorrelationError, NotApplicableError)
from .inference import ALARM, SILENCE, InspectionModel, _outcomes, _posterior_mean
from .model import _bit_sums, _check_sizes, _halves, check_state
from .reports import PosteriorActionTable, VoIReport

FRECHET_TOL = 1e-12
TIE_TOL = 1e-12
# Plans that are structurally equivalent (say, symmetric repairs) land within
# float-summation noise of each other; losses this close count as tied so the
# lowest-mask rule actually bites.
PLAN_TIE_RTOL = 1e-9
# Bits one dense plan-risk operator covers: a 2^W x 2^W matrix, one matmul.
# Small blocks fuse into steps of this width; a step on adjacent bits is one
# matmul, any other recurses on the restriction lattice down to this width.
CHUNK_BITS = 4
# Bytes of plan-risk vectors and weight tables a lattice step's split holds at once.
SPLIT_BYTES = 1 << 25
# Times a (-1, 2, 2^b) view of a table: row 0 keeps the states in which the
# component on bit b has failed, row 1 those in which it works.
_ONE_HALF = np.eye(2).reshape(2, 1, 2, 1)


@dataclass(frozen=True)
class LocalCostModel:
    """Failure cost plus one replacement cost per component."""

    c_fail: float
    c_repair: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c_fail", POSITIVE.check(self.c_fail, "failure cost"))
        object.__setattr__(self, "c_repair", tuple(
            NONNEGATIVE.check(c, f"repair cost of component {i}")
            for i, c in enumerate(self.c_repair)))
        if self.c_fail + sum(self.c_repair) == math.inf:
            raise ValueError("the failure cost plus the sum of repair costs must be finite")

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


def plan_expected_loss(net, dist: JointDistribution, plan: int,
                       costs: LocalCostModel) -> float:
    """Residual failure risk after the plan plus its repair bill, by plan-by-state enumeration.

    The tests enumerate it over every plan as the plan-risk engine's Theta(4^N) reference.
    """
    _check_sizes(net, dist, costs)
    check_state(plan, net.n_components)
    _, mass = _failure_masses(net, dist, plan)
    return costs.c_fail * float(mass.sum()) + repair_cost(plan, costs)


def plan_failure_risks(net, dist: JointDistribution) -> np.ndarray:
    """Post-repair system failure probability for every plan mask.

    Plan risk is linear in the pmf, and a product of independent blocks
    makes it a product of per-block operators on the failure indicator
    (``_steps``). Blocks fuse into steps of up to ``CHUNK_BITS`` bits; a step
    on adjacent bits applies as one dense 2^w x 2^w matrix: 2^N * 2^w
    multiply-adds per step, so Theta(N 2^N) for independent components. A
    wider block, or a step on scattered bits, runs the restriction-lattice
    sweep along its own bits, vectorised over all other bits: Theta(2^N * 1.5^k)
    for k bits, so Theta(3^N) for an explicit table, instead of the Theta(4^N)
    plan-by-state enumeration. Both kinds of step apply a batch of weight
    tables, here a batch of one. Posteriors after one inspection need no run
    of their own: ``voi_local`` reweights this vector's two halves split by
    the inspected component, which ``_split_risks`` forms from zero-padded halves.
    """
    _check_sizes(net, dist)
    return _risks((~net.truth_table()).astype(np.float64), _steps(dist))


def _fuses(members) -> bool:
    """Whether a step is dense: at most ``CHUNK_BITS`` adjacent bits, ascending."""
    return len(members) <= CHUNK_BITS and members[-1] - members[0] == len(members) - 1


def _steps(dist: JointDistribution) -> list:
    """The engine's operators for ``dist`` as (bits, weights): its ``CHUNK_BITS`` products."""
    return _fuse(dist.blocks(), CHUNK_BITS)


def _risks(risk: np.ndarray, steps) -> np.ndarray:
    """Apply each step to ``risk``: a dense one as one matmul, any other by the lattice sweep."""
    for members, table in steps:
        apply = _apply_chunk if _fuses(members) else _lattice
        risk = apply(risk, members, table[None])[0].reshape(-1)
    return risk


def _split_risks(fail: np.ndarray, steps):
    """Each component i, its plan risks (R_i0, R_i1) and masses (m0, m1) with i failed and working.

    R_i0 + R_i1 is the prior's plan risk vector. The steps that do not hold
    i run once for all members of i's step, which then applies its table's
    two halves split by i's state, each zero-padded to the full table: a
    dense step one batch of two per member, a lattice step the halves of as
    many members as ``SPLIT_BYTES`` holds (all k up to an explicit table at
    N = 16) in one sweep. R_i1 is swept, not taken as R - R_i0, which cancels at
    small risks.
    """
    for s, (members, table) in enumerate(steps):
        shared = _risks(fail, steps[:s] + steps[s + 1:])
        dense = _fuses(members)
        group = 1 if dense else max(1, SPLIT_BYTES // (16 * (fail.size + table.size)))
        for lo in range(0, len(members), group):
            bits = range(lo, min(lo + group, len(members)))
            batch = (_apply_chunk if dense else _lattice)(shared, members, np.concatenate(
                [(table.reshape(-1, 2, 1 << bit) * _ONE_HALF).reshape(2, -1) for bit in bits]))
            for j, bit in enumerate(bits):
                yield members[bit], batch[2 * j:2 * j + 2].reshape(2, -1), _halves(table, bit)


@functools.cache
def _or_table(r: int) -> np.ndarray:
    """0/1 table ``E[s, (t, a)] = [s | a == t]`` over r-bit states s, t and sub-plans a."""
    s = np.arange(1 << r)
    table = ((s[:, None, None] | s) == s[:, None]).astype(np.float64).reshape(1 << r, -1)
    table.flags.writeable = False
    return table


def _operator(p: np.ndarray, r: int) -> np.ndarray:
    """Dense plan-risk operator of the weight tables ``p`` for the sub-plans of their ``r`` bits.

    ``p`` holds tables of 2^r weights along its last axis: a matrix of them is one
    product, a stack one product each. Returns M transposed, of shape p.shape + (2^r,):
    ``M[a, t]`` sums a table's p[s] over the states s with s | a = t, so right-multiplying
    the failure indicator over t gives the failure mass of every sub-plan a.
    """
    return (p @ _or_table(r)).reshape(*p.shape, 1 << r)


def _apply_chunk(risk: np.ndarray, members, tables: np.ndarray) -> np.ndarray:
    """Apply each of the weight ``tables`` over the adjacent bits ``members`` as one matmul."""
    size = tables.shape[1]
    # one product per table, not one over the batch, so each table sums as it does alone
    m_t = _operator(tables[:, None], len(members)).reshape(-1, size, size)
    if members[0] == 0:
        return (risk.reshape(-1, size) @ m_t).reshape(len(tables), -1)
    return (m_t.swapaxes(1, 2)[:, None] @ risk.reshape(-1, size, 1 << members[0])
            ).reshape(len(tables), -1)


def _lattice(risk: np.ndarray, members, tables: np.ndarray) -> np.ndarray:
    """Apply each of the weight ``tables`` over ``members`` by one batched lattice sweep.

    The sweep runs with the members' bits last, member 0 lowest; the batch
    comes back as a mask-order view (tables, 2, ..., 2), flattened one result at a time.
    """
    n = risk.size.bit_length() - 1
    src = [n - 1 - m for m in members]
    dst = list(range(n - 1, n - 1 - len(members), -1))
    cube = np.moveaxis(risk.reshape((2,) * n), src, dst)
    out = np.empty((len(tables),) + cube.shape)
    _sweep(tables, cube.reshape(-1, tables.shape[1]), len(members), 0,
           out.reshape(len(tables), -1, tables.shape[1]))
    return np.moveaxis(out, [d + 1 for d in dst], [c + 1 for c in src])


def _sweep(p: np.ndarray, f: np.ndarray, r: int, plan: int, out: np.ndarray) -> None:
    """Lattice sweep of one block, batched over weight tables.

    ``out[b, :, A] = sum_s p[b, s] * f[:, s | A]`` for every table b and
    plan A. Sweeps the block's bits from the highest down, branching on
    whether the plan repairs them. Repairing a bit sums it out of the
    weights ``p`` and keeps only the working half of the columns of ``f``;
    leaving it keeps both for the final contraction, so every plan costs
    2^(bits left alone). The last ``CHUNK_BITS`` bits are one product over
    all their sub-plans: each table's dense operator (``_operator``) for a
    batch up to ``f``'s rows, else ``f`` expanded by sub-plan for the batch.
    """
    if r <= CHUNK_BITS:
        if len(p) <= len(f):
            block = f @ _operator(p.reshape(-1, 1 << r), r).reshape(len(p), -1, 1 << r)
        else:  # the batch shares one expansion, F[k, s, a, x] = f[x, k, s | a]
            s = np.arange(1 << r)
            wide = np.take(f.T.reshape(-1, 1 << r, len(f)), s[:, None] | s, axis=1)
            block = (p @ wide.reshape(p.shape[1], -1)).reshape(len(p), -1, len(f)).swapaxes(1, 2)
        out[:, :, plan:plan + (1 << r)] = block
        return
    _sweep(p, f, r - 1, plan, out)
    half = 1 << (r - 1)
    k = p.shape[1] >> r
    pairs = p.reshape(-1, k, 2, half)
    _sweep((pairs[:, :, 0] + pairs[:, :, 1]).reshape(-1, k * half),
           f.reshape(-1, k, 2, half)[:, :, 1, :].reshape(-1, k * half),
           r - 1, plan | half, out)


def plan_losses(net, dist: JointDistribution, costs: LocalCostModel) -> np.ndarray:
    """Expected loss of every plan mask under the current belief."""
    _check_sizes(net, dist, costs)
    return costs.c_fail * plan_failure_risks(net, dist) + _bit_sums(costs.c_repair)


def _cheapest(losses, c_fail: float) -> tuple[int, float]:
    """Lowest index within ``PLAN_TIE_RTOL``·c_fail of the least loss, and its loss."""
    losses = np.asarray(losses)
    best = int(np.argmax(losses <= losses.min() + PLAN_TIE_RTOL * c_fail))
    return best, float(losses[best])


def optimal_plan(net, dist: JointDistribution, costs: LocalCostModel) -> tuple[int, float]:
    """Cheapest plan and its loss; ties resolve to the lowest mask."""
    return _cheapest(plan_losses(net, dist, costs), costs.c_fail)


def posterior_action_table(net, dist: JointDistribution, insp: InspectionModel,
                           costs: LocalCostModel) -> PosteriorActionTable:
    """Re-optimized plan for each inspected component and outcome."""
    return voi_local(net, dist, insp, costs).action_table


def _report(metric: str, prior_plan: int, prior_loss: float, rows) -> VoIReport:
    """Report of per-component ({y: (plan, loss)}, value); outcomes not priced keep the prior's."""
    priced, voi = zip(*rows)
    (silence_plans, silence_losses), (alarm_plans, alarm_losses) = (
        zip(*(row.get(y, (prior_plan, prior_loss)) for row in priced)) for y in (SILENCE, ALARM))
    return VoIReport(metric=metric, prior_loss=prior_loss,
                     posterior_loss=tuple(prior_loss - v for v in voi), voi=voi,
                     prior_plan=prior_plan,
                     action_table=PosteriorActionTable(silence_plans, alarm_plans,
                                                       silence_losses, alarm_losses))


def voi_local(net, dist: JointDistribution, insp: InspectionModel,
              costs: LocalCostModel) -> VoIReport:
    """Inspection values under full posterior plan re-optimization.

    Outcome y on component i reweights the prior's plan risks restricted to
    i failed and to i working, R_i0 and R_i1, by its likelihood (w_f, w_w):
    the posterior's plan risks are (w_f R_i0 + w_w R_i1) / (w_f m0 + w_w m1)
    for the masses m0 and m1 of i failed and working (``_split_risks``). A
    loss is c_fail times a nonnegative risk plus a repair bill, so, in
    floating point too, only plans billed at most T can lie in the tie band
    of the least loss: T is the larger over both outcomes of the heuristic's
    cheaper loss, of the prior plan and its flip at i, plus the band. Pricing
    those plans in mask order gives the floats of a scan of all 2^N plans;
    with free repairs it prices every plan.
    """
    _check_sizes(net, dist, insp, costs)
    steps = _steps(dist)
    fail = (~net.truth_table()).astype(np.float64)
    repair = _bit_sums(costs.c_repair)
    prior_plan, prior_loss = _cheapest(costs.c_fail * _risks(fail, steps) + repair, costs.c_fail)
    rows = [None] * net.n_components
    for i, split, masses in _split_risks(fail, steps):
        row, value = {}, 0.0
        outcomes = _outcomes(dist, i, insp)
        heuristic = {y: [costs.c_fail * _posterior_mean(masses, split[:, a].tolist(), w)
                         + repair.item(a) for a in (prior_plan, prior_plan ^ (1 << i))]
                     for y, _, w in outcomes}
        bound = max(map(min, heuristic.values()), default=-math.inf) + PLAN_TIE_RTOL * costs.c_fail
        plans = (repair <= bound).nonzero()[0]
        risks, bills = split.take(plans, axis=1), repair[plans]
        for y, p_y, w in outcomes:
            losses = costs.c_fail * _posterior_mean(masses, risks, w) + bills
            best, least = _cheapest(losses, costs.c_fail)
            row[y] = int(plans[best]), least
            # the prior loss of the prior plan is the mixture of its posterior
            # losses, so an outcome that keeps that plan adds exactly 0
            value += p_y * (heuristic[y][0] - least)
        rows[i] = (row, value)
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
    _check_sizes(net, dist, insp, costs)
    pmf, kept = _failure_masses(net, dist, prior_plan)
    fail, masks, flipped = ~net.truth_table(), np.arange(pmf.size), np.empty_like(pmf)
    rows = []
    for i in range(net.n_components):
        flip = prior_plan ^ (1 << i)
        # with i working, s | P is s | flip: a flip changes only the failed half,
        # formed alone and summed in place as ``_halves`` sums, since from N = 16
        # on numpy adds a contiguous copy of a half in another order
        failed = flipped.reshape(-1, 2, 1 << i)[:, 0]
        np.multiply(pmf.reshape(-1, 2, 1 << i)[:, 0],
                    fail[masks.reshape(-1, 2, 1 << i)[:, 0] | flip], out=failed)
        prob, (kept_failed, working) = _halves(pmf, i), _halves(kept, i)
        mass = {prior_plan: (kept_failed, working), flip: (float(failed.sum()), working)}
        row, value = {}, 0.0
        for y, p_y, w in _outcomes(dist, i, insp):
            # an outcome that contradicts the prior action leaves no choice
            plans = sorted(mass) if y == (prior_plan >> i) & 1 else [prior_plan]
            loss = {plan: costs.c_fail * _posterior_mean(prob, mass[plan], w)
                    + repair_cost(plan, costs) for plan in plans}
            best, least = _cheapest(list(loss.values()), costs.c_fail)
            row[y] = plans[best], least
            # the prior loss of the kept plan is the mixture of its posterior
            # losses, so only a flipped outcome adds value
            value += p_y * (loss[prior_plan] - row[y][1])
        rows.append((row, value))
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
    p1, p2 = PROBABILITY.check(p1, "p1"), PROBABILITY.check(p2, "p2")
    rho = SIGNED_CORRELATION.check(rho, "rho")
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
    _check_sizes(dist, costs)
    out = []
    for p, c_r in zip(dist.failure_probs, costs.c_repair):
        out.append(min(p * costs.c_fail, c_r) - p * c_r)
    return tuple(out)
