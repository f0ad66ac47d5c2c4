"""Component-level maintenance optimization and inspection values.

Maintenance plans pack into integer masks like states do: bit i set means
component i gets replaced. Repairs are perfect, so applying plan A to
state s yields ``s | A``; a plan's expected loss is the residual failure
risk plus the summed repair costs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Independent, JointDistribution, _failure_masses, _fuse
from .errors import (NONNEGATIVE, POSITIVE, PROBABILITY, SIGNED_CORRELATION,
                     InfeasibleCorrelationError, NotApplicableError)
from .inference import ALARM, SILENCE, InspectionModel, _outcomes, _posterior_mean, _split_masses
from .model import _bit_sums, _check_sizes, _fold_halves, check_state
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
# Bytes a lattice step's split batch holds at once: a plan-risk vector and a table a row.
SPLIT_BYTES = 1 << 25
# A half read off as a difference a - b below this share of a has lost 10 of
# a's bits: the metrics then sweep or sum that half on its own. In a monotone
# system an independent component's failed half is at least its failure
# probability's share of R, so one whose share is at least this reads off R.
_CANCEL_FLOOR = 2.0 ** -10


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
    plan-by-state enumeration. Each step applies in ``_batch``, here to one
    table. Posteriors after one inspection need no run of their own: both
    component metrics reweight this vector's halves split by the inspected
    component, each at the plans it prices (``_splits``).
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
    """Apply each step to ``risk``, its table a batch of one (``_batch``)."""
    for members, table in steps:
        risk = next(_batch(risk, members, [table]))
    return risk


def _splits(fail: np.ndarray, steps, blocks):
    """The prior's plan risks R, then each component i as (i, split, masses).

    ``split(plans)`` gives R restricted to i failed and to i working,
    (R_i0, R_i1), at the plans asked for: floats at one plan, arrays at an
    array. The masses (m0, m1) are those of the two states. A singleton block
    of weights (t0, t1) with t0 >= ``_CANCEL_FLOOR`` (t0 + t1) reads off R
    (``_read_at``); every other component is swept first, in one
    ``_split_risks`` call whose first batch holds R, and indexed (``_take``).
    """
    read = {members[0]: table.tolist() for members, table in blocks
            if len(members) == 1 and table[0] >= _CANCEL_FLOOR * table.sum()}
    swept = _split_risks(fail, steps, {m for members, _ in blocks for m in members
                                       if m not in read})
    prior = next(swept, None)
    if prior is None:
        prior = _risks(fail, steps)
    yield prior
    for i, halves, masses in swept:
        yield i, functools.partial(_take, halves), masses
        del halves  # or the next member's sweep would hold this one's rows
    # One buffer as wide as R (free repairs price every plan) takes the read-offs,
    # made once the sweep's batches are freed, for glibc's dynamic thresholds:
    # freeing a mapped 2^N buffer raises them, so later 2^N arrays reuse heap
    # pages, and held beside the batches it would raise the heap's peak.
    out = np.empty((2, prior.size)) if read else None
    for i, (t0, t1) in read.items():
        yield i, functools.partial(_read_at, prior, i, t1 / (t0 + t1), out=out), (t0, t1)


def _take(halves, plans):
    """A swept split's halves at ``plans``: floats at one plan, arrays at an array of plans."""
    if isinstance(plans, int):
        return halves[0].item(plans), halves[1].item(plans)
    return halves[0].take(plans), halves[1].take(plans)


def _read_at(prior: np.ndarray, i: int, share: float, plans, out=None):
    """Halves at ``plans`` of component i, a singleton block of weights (t0, t1), read off R.

    With i working, A and A | i are the same plan, and A | i makes i's state
    irrelevant, so R_i1[A] = R[A | i] share, for share = t1 / (t0 + t1), and
    R_i0 = R - R_i1: floats at one plan, else the rows of ``out``, by the same operations.
    """
    if isinstance(plans, int):
        working = prior.item(plans | 1 << i) * share
        return prior.item(plans) - working, working
    failed, working = out[:, :plans.size]  # mode="clip": "raise" would take into a fresh copy
    np.multiply(prior.take(plans | 1 << i, out=working, mode="clip"), share, out=working)
    return np.subtract(prior.take(plans, out=failed, mode="clip"), working, out=failed), working


def _split_risks(fail: np.ndarray, steps, swept):
    """R, then each component i in ``swept`` as (i, (R_i0, R_i1), masses), the split as vectors.

    Yields nothing for no member. The steps that do not hold i run once for
    i's step, which then applies one batch (``_batch``): the working half
    of each swept member, whose row is R_i1, and ahead of them, in the
    first such step, its own table, whose row is R. A later step's own row
    would be R again up to rounding. Each R_i0 is R - R_i1 unless that is
    below ``_CANCEL_FLOOR`` R at some plan, as where i rarely or never
    fails: those failed halves are one more batch of the step. The masses
    of all members come from one fold of the table.
    """
    risk = None
    for s, (members, table) in enumerate(steps):
        bits = [bit for bit, m in enumerate(members) if m in swept]
        if not bits:
            continue
        shared = _risks(fail, steps[:s] + steps[s + 1:])
        masses = _fold_halves(table, np.empty(table.size // 2))
        tables = (_half(table, bit, 1) for bit in bits)
        if risk is None:
            rows = _batch(shared, members, itertools.chain([table], tables))
            risk = next(rows).copy()  # a copy, so that no batch outlives its rows
            yield risk
        else:
            rows = _batch(shared, members, tables)
        cancels = []
        for bit, working in zip(bits, rows):
            failed = risk - working
            if np.less(failed, risk * _CANCEL_FLOOR).any():
                cancels.append((bit, working))
            else:
                yield members[bit], (failed, working), masses[bit]
            del failed, working  # or the next group's sweep would hold this one's rows
        if cancels:
            sweep = _batch(shared, members, (_half(table, bit, 0) for bit, _ in cancels))
            for (bit, working), failed in zip(cancels, sweep):
                yield members[bit], (failed, working), masses[bit]


def _half(table: np.ndarray, bit: int, state: int) -> np.ndarray:
    """``table`` zero-padded where the component on ``bit`` is not in ``state`` (1 works)."""
    half = table.copy()
    half.reshape(-1, 2, 1 << bit)[:, 1 - state] = 0.0
    return half


def _batch(risk: np.ndarray, members, tables):
    """Each of the weight ``tables`` applied over ``members`` to ``risk``, one row at a time.

    The only place a step is applied. A dense step's matmul costs the same
    per row alone, so it applies one table at a time and holds one 2^N row,
    not 1 + k. A lattice step sweeps as many as ``SPLIT_BYTES`` holds (all
    1 + k of a k-bit explicit table up to N = 16), taken as it goes.
    """
    if _fuses(members):
        yield from (_apply_chunk(risk, members, table) for table in tables)
        return
    group = max(1, SPLIT_BYTES // (8 * (risk.size + (1 << len(members)))))
    tables = iter(tables)
    while len(batch := np.array(list(itertools.islice(tables, group)))):
        yield from (row.reshape(-1) for row in _lattice(risk, members, batch))


@functools.cache
def _or_table(r: int) -> np.ndarray:
    """0/1 table ``E[s, (t, a)] = [s | a == t]`` over r-bit states s, t and sub-plans a."""
    s = np.arange(1 << r)
    table = ((s[:, None, None] | s) == s[:, None]).astype(np.float64).reshape(1 << r, -1)
    table.flags.writeable = False
    return table


def _operator(p: np.ndarray, r: int) -> np.ndarray:
    """Dense plan-risk operator of the weight tables ``p`` for the sub-plans of their ``r`` bits.

    ``p`` holds tables of 2^r weights along its last axis, all in one product.
    Returns M transposed, of shape p.shape + (2^r,):
    ``M[a, t]`` sums a table's p[s] over the states s with s | a = t, so right-multiplying
    the failure indicator over t gives the failure mass of every sub-plan a.
    """
    return (p @ _or_table(r)).reshape(*p.shape, 1 << r)


def _apply_chunk(risk: np.ndarray, members, table: np.ndarray) -> np.ndarray:
    """Apply the weight ``table`` over the adjacent bits ``members`` as one matmul."""
    m_t = _operator(table, len(members))
    if members[0] == 0:
        return (risk.reshape(-1, table.size) @ m_t).reshape(-1)
    return (m_t.T @ risk.reshape(-1, table.size, 1 << members[0])).reshape(-1)


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
    return _losses(plan_failure_risks(net, dist), costs.c_fail, _bit_sums(costs.c_repair))


def _losses(risks: np.ndarray, c_fail: float, repair: np.ndarray) -> np.ndarray:
    """c_fail R + repair for the plan risks R and bills ``repair``, in one new array."""
    losses = np.multiply(risks, c_fail)
    losses += repair
    return losses


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
    for the masses m0 and m1 of i failed and working (``_splits``). A loss
    is c_fail times a nonnegative risk plus a repair bill, so, in floating
    point too, only plans billed at most T can lie in the tie band of the
    least loss, for T the band above the larger over both outcomes of the
    cheaper of the prior plan P and its flip P ^ i (``_flips``). Those plans
    are priced in mask order as a full scan would: all with free repairs, none with no outcome.
    """
    return _voi_local(net, dist, insp, costs)[0]


def _voi_local(net, dist, insp, costs) -> tuple[VoIReport, list]:
    """``voi_local``'s report and each component's ``_flips``, the heuristic's input."""
    _check_sizes(net, dist, insp, costs)
    repair = _bit_sums(costs.c_repair)
    splits = _splits((~net.truth_table()).astype(np.float64), _steps(dist), dist.blocks())
    prior = next(splits)
    prior_plan, prior_loss = _cheapest(_losses(prior, costs.c_fail, repair), costs.c_fail)
    rows, flips = [None] * net.n_components, [None] * net.n_components
    for i, split, masses in splits:
        row, value, outcomes = {}, 0.0, _outcomes(dist, i, insp)
        flips[i] = _flips(split, masses, outcomes, prior_plan, i, costs.c_fail, repair)
        if outcomes:  # else no plan is priced, and _report fills the row
            bound = max(min(losses.values()) for _, _, losses in flips[i])
            plans = (repair <= bound + PLAN_TIE_RTOL * costs.c_fail).nonzero()[0]
            risks, bills = split(plans), repair[plans]
        del split  # before the next split is made: a higher heap peak is refaulted
        for (y, p_y, w), (_, _, kept) in zip(outcomes, flips[i]):
            losses = costs.c_fail * _posterior_mean(masses, risks, w) + bills
            best, least = _cheapest(losses, costs.c_fail)
            row[y] = int(plans[best]), least
            # the prior loss of the prior plan is the mixture of its posterior
            # losses, so an outcome that keeps that plan, or ties it, adds 0
            value += p_y * max(kept[prior_plan] - least, 0.0)
        rows[i] = (row, value)
    return _report("local", prior_plan, prior_loss, rows), flips


def _flips(split, masses, outcomes, prior_plan: int, i: int, c_fail: float, repair) -> list:
    """Each outcome on i as (y, p_y, {A: loss}) for A the prior plan P and its flip P ^ i.

    The one pricing of both plans: the local metric's bound and the heuristic's rule read it.
    """
    halves = {a: split(a) for a in (prior_plan, prior_plan ^ 1 << i)} if outcomes else {}
    return [(y, p_y, {a: c_fail * _posterior_mean(masses, h, w) + repair.item(a)
                      for a, h in halves.items()}) for y, p_y, w in outcomes]


def _heuristic(prior_plan: int, prior_loss: float, flips, c_fail: float) -> VoIReport:
    """The heuristic's report from each component's ``_flips`` at the prior plan P.

    An outcome that contradicts P's action on i (alarm on a repair, silence on
    a do-nothing) keeps P; otherwise the cheaper of P and P ^ i, lower mask on a tie.
    """
    rows = []
    for i, outcomes in enumerate(flips):
        row, value = {}, 0.0
        for y, p_y, losses in outcomes:
            plans = sorted(losses) if y == prior_plan >> i & 1 else [prior_plan]
            best, least = _cheapest([losses[a] for a in plans], c_fail)
            row[y] = plans[best], least
            # the kept plan's prior loss is the mixture of its posterior losses,
            # so only a flipped outcome saves, and a plan in its tie band saves 0
            value += p_y * max(losses[prior_plan] - least, 0.0)
        rows.append((row, value))
    return _report("heuristic", prior_plan, prior_loss, rows)


def voi_heuristic(net, dist: JointDistribution, insp: InspectionModel,
                  costs: LocalCostModel) -> VoIReport:
    """Inspection values when the posterior may only toggle the inspected repair.

    The rule on the prior plan P and its flip F = P ^ i (``_heuristic``), each
    priced as the local metric prices it (``_flips``), from halves by two
    routes: a singleton block's i, of weights (t0, t1), reads them off the
    prior's plan risks R (``_read_at``); a larger block's member folds at P
    (``_split_masses``) and takes F's as (R[F] - R_i1[P], R_i1[P]), as
    repairing a working i changes nothing. A failed half below ``_CANCEL_FLOOR`` R
    is R's t0 share where a plan repairs a singleton, else summed (``_failed_half``).
    """
    _check_sizes(net, dist, insp, costs)
    risks = plan_failure_risks(net, dist)
    repair = _bit_sums(costs.c_repair)
    prior_plan, prior_loss = _cheapest(_losses(risks, costs.c_fail, repair), costs.c_fail)
    singles = {members[0]: table.tolist() for members, table in dist.blocks() if len(members) == 1}
    if len(singles) < net.n_components:
        _, prob, kept = _split_masses(net, dist, prior_plan)

    def halves(i, weights, plan):
        if not weights and plan == prior_plan:
            return kept[i]
        risk = risks.item(plan)
        failed, working = (_read_at(risks, i, weights[1] / sum(weights), plan) if weights
                           else (risk - kept[i][1], kept[i][1]))
        if failed < _CANCEL_FLOOR * risk:
            failed = (risk * weights[0] / sum(weights) if weights and plan >> i & 1
                      else _failed_half(net, dist, i, plan))
        return failed, working

    flips = [_flips(functools.partial(halves, i, singles.get(i)), singles.get(i) or prob[i],
                    _outcomes(dist, i, insp), prior_plan, i, costs.c_fail, repair)
             for i in range(net.n_components)]
    return _heuristic(prior_plan, prior_loss, flips, costs.c_fail)


def _failed_half(net, dist, i: int, plan: int) -> float:
    """Sum of pmf(s) fail(s | plan) over the 2^(N-1) states s in which component i has failed."""
    states = np.add.outer(np.arange(0, 1 << net.n_components, 2 << i), np.arange(1 << i))
    return float((dist.pmf_vector().reshape(-1, 2, 1 << i)[:, 0]
                  * ~net.truth_table()[states | plan]).sum())


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
