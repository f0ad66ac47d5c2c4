"""Plan optimization, local/heuristic inspection values, and pair policies."""

import gc
import math

import numpy as np
import pytest

from netvoi import (PERFECT_INSPECTION, CommonCauseGroups, Explicit, FormulaTree,
                    Group, Independent, InfeasibleCorrelationError,
                    InspectionModel, LocalCostModel, Network, NotApplicableError,
                    apply_repairs, cumulative_approx_voi, optimal_plan, parallel,
                    plan_expected_loss, plan_failure_risks, plan_losses,
                    posterior_action_table, repair_cost,
                    series, series_pair_policy, system_failure_prob,
                    voi_heuristic, voi_local)
import netvoi.local_metrics as local_metrics
from netvoi.distributions import JointDistribution, _frozen, _reweight_blocks
from netvoi.inference import (ALARM, SILENCE, _likelihood, _outcomes, _posterior_mean,
                              posterior_given_observation)
from netvoi.local_metrics import PLAN_TIE_RTOL, _cheapest, _split_risks, _steps
from netvoi.model import _bit_sums, _halves
from netvoi.scenario import parse_scenario_file

from conftest import (brute_force_plan_risks, make_three_branch, random_distribution,
                      random_network, scenario_path, THREE_BRANCH_PROBS)


def plan_of(names_on, names):
    return sum(1 << names.index(x) for x in names_on)


def test_apply_repairs():
    assert apply_repairs(0b00, 0b11) == 0b11
    assert apply_repairs(0b01, 0b00) == 0b01
    assert apply_repairs(0b10, 0b01) == 0b11


def test_plan_expected_loss_edges():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    costs = LocalCostModel.uniform(6, 1.0, 0.1)
    assert plan_expected_loss(net, dist, 0b111111, costs) == pytest.approx(0.6)
    assert plan_expected_loss(net, dist, 0, costs) == pytest.approx(
        system_failure_prob(net, dist))


def test_optimal_plan_three_branch():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    plan, loss = optimal_plan(net, dist, LocalCostModel.uniform(6, 1.0, 0.1))
    assert plan == 0b000010  # replace the second component
    assert loss == pytest.approx(0.1432, abs=1e-12)
    alt = LocalCostModel(1.0, (0.1, 0.2, 0.1, 0.1, 0.1, 0.1))
    plan_alt, loss_alt = optimal_plan(net, dist, alt)
    assert plan_alt == 0b001000  # dearer second component shifts it to the fourth
    assert loss_alt == pytest.approx(0.16624, abs=1e-12)
    losses = plan_losses(net, dist, alt)
    assert loss_alt == pytest.approx(float(losses.min()), abs=1e-12)


def test_optimal_plan_free_repairs_lowest_mask():
    dist = Independent([0.3, 0.4])
    costs = LocalCostModel.uniform(2, 1.0, 0.0)
    par = Network(FormulaTree(parallel(0, 1)))
    assert optimal_plan(par, dist, costs) == (0b01, pytest.approx(0.0))
    srs = Network(FormulaTree(series(0, 1)))
    assert optimal_plan(srs, dist, costs) == (0b11, pytest.approx(0.0))


def test_optimal_plan_unaffordable_repairs():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    costs = LocalCostModel.uniform(6, 1.0, 2.0)
    plan, loss = optimal_plan(net, dist, costs)
    assert plan == 0
    assert loss == pytest.approx(system_failure_prob(net, dist))


def test_network_cap_is_the_only_cap():
    # a network built past the default cap is optimised without a second cap
    net = Network(FormulaTree(parallel(*(series(3 * k, 3 * k + 1, 3 * k + 2)
                                         for k in range(7)))), cap=21)
    dist = Independent([0.05] * 21)
    costs = LocalCostModel.uniform(21, 1.0, 0.01)
    plan, loss = optimal_plan(net, dist, costs)
    assert 0 <= plan < 1 << 21
    assert loss == pytest.approx(plan_expected_loss(net, dist, plan, costs), rel=1e-12)


def beliefs_of_every_kind(rng, n, certain=False):
    """An independent, an explicit and a shared-cause belief over n components.

    With ``certain`` some components never fail and some always do, and the
    explicit table has zero weights.
    """
    def draw(size):
        p = rng.uniform(0.02, 0.98, size=size)
        if certain:
            p = np.where(rng.random(size) < 0.5, rng.integers(0, 2, size=size), p)
        return p

    weights = rng.uniform(0.01, 1.0, size=1 << n)
    if certain:
        weights[rng.random(weights.size) < 0.5] = 0.0
        weights[int(rng.integers(weights.size))] = 1.0
    order = [int(m) for m in rng.permutation(n)]
    cuts = [0] + sorted(rng.choice(np.arange(1, n), size=min(n - 1, n // 2),
                                   replace=False).tolist()) + [n]
    groups = [Group(order[a:b], float(draw(1)[0]), float(rng.uniform(0.0, 0.9)))
              for a, b in zip(cuts, cuts[1:])]
    return (Independent(draw(n)), Explicit(weights / weights.sum()),
            CommonCauseGroups(groups, n_components=n))


def assert_engine_matches_brute_force(rng, net, dist, costs, atol=1e-14):
    """Prior plan losses, and the block-reweighted posterior of each component."""
    n = net.n_components
    assert np.allclose(plan_losses(net, dist, costs),
                       brute_force_plan_risks(net, dist, costs), rtol=0.0, atol=atol)
    masks = np.arange(1 << n)
    for i in range(n):
        w_failed, w_working = rng.uniform(0.05, 1.0, size=2)
        post = dist.pmf_vector() * np.where((masks >> i) & 1, w_working, w_failed)
        if post.sum() <= 0.0:
            continue
        losses = plan_losses(net, JointDistribution(_reweight_blocks(
            dist.blocks(), i, w_failed, w_working)), costs)
        assert np.allclose(losses, brute_force_plan_risks(
            net, Explicit(post / post.sum()), costs), rtol=0.0, atol=atol), i


def test_sweep_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        costs = LocalCostModel(float(rng.uniform(0.5, 2.0)),
                               rng.uniform(0.0, 0.5, size=n))
        assert_engine_matches_brute_force(rng, net, random_distribution(rng, n), costs)
        # every belief kind, with certain components and zero explicit weights
        for dist in beliefs_of_every_kind(rng, n, certain=True):
            assert_engine_matches_brute_force(rng, net, dist, costs)
    # block layouts that decide between fused chunks and the lattice sweep
    layouts = [
        [(0, 2), (1, 3, 4)],  # interleaved members: both blocks take the lattice
        [(0, 1), (2, 3, 4, 5), (6,)],  # a group across the aligned chunk boundary at bit 4
        [(0,), (1, 2, 3, 4, 5, 6)],  # a group wider than a chunk
        [(4, 3), (0, 1, 2)],  # members listed out of bit order
        [(0, 1, 2), (3, 4), (5, 6), (7,)],  # chunks of 3, 4 and 1 bits
    ]
    for layout in layouts:
        n = sum(len(members) for members in layout)
        net = random_network(rng, n)
        costs = LocalCostModel(float(rng.uniform(0.5, 2.0)), rng.uniform(0.0, 0.5, size=n))
        for p in (0.0, 1.0, float(rng.uniform(0.05, 0.5))):
            groups = [Group(members, p, float(rng.uniform(0.1, 0.8))) for members in layout]
            assert_engine_matches_brute_force(rng, net, CommonCauseGroups(groups), costs)
    # independent beliefs: N = 1, N not a multiple of the chunk width, certain components
    for n in (1, 5, 7):
        net = random_network(rng, n) if n > 1 else Network(FormulaTree(series(0)))
        costs = LocalCostModel(1.0, rng.uniform(0.0, 0.5, size=n))
        probs = rng.uniform(0.05, 0.95, size=n)
        probs[rng.random(n) < 0.3] = rng.integers(0, 2)
        assert_engine_matches_brute_force(rng, net, Independent(probs), costs)


def test_batched_lattice_equals_each_table_alone():
    # a batch of B tables on k adjacent or scattered bits of an (k + 2)-bit
    # vector: B <= 4 rows takes the leaf's operator side, B = 2k its
    # expanded side; each result equals its table alone, and the plan risks
    # of brute force under that table, with every other component failed
    rng = np.random.default_rng(53)
    for k in range(3, 9):
        n = k + 2
        net = random_network(rng, n)
        fail = (~net.truth_table()).astype(float)
        unit = LocalCostModel.uniform(n, 1.0, 0.0)  # brute-force losses are the risks
        lo = int(rng.integers(0, 3))
        scattered = sorted(rng.choice(n, size=k, replace=False).tolist())
        if scattered[-1] - scattered[0] == k - 1:
            scattered = [b for b in range(n) if b != 1][:k]
        for members in (list(range(lo, lo + k)), scattered):
            w = rng.uniform(0.0, 1.0, size=(3, 1 << k)) * (rng.random((3, 1 << k)) < 0.9)
            w /= w.sum(axis=1, keepdims=True)
            halves = np.concatenate([(w[0].reshape(-1, 2, 1 << bit) * local_metrics._ONE_HALF
                                      ).reshape(2, -1) for bit in range(k)])
            states = np.arange(1 << k)
            spread = sum(((states >> j) & 1) << m for j, m in enumerate(members))
            for tables in (w, halves):
                batch = local_metrics._lattice(fail, members, tables).reshape(len(tables), -1)
                for b, table in enumerate(tables):
                    alone = local_metrics._lattice(fail, members, table[None])[0].reshape(-1)
                    np.testing.assert_allclose(batch[b], alone, rtol=1e-13, atol=0.0)
                    pmf = np.zeros(1 << n)
                    pmf[spread] = table
                    np.testing.assert_allclose(alone, table.sum() * brute_force_plan_risks(
                        net, Explicit(pmf / table.sum()), unit), rtol=1e-13, atol=0.0)


def test_product_belief_matches_its_explicit_table():
    # the same joint through fused chunks and through the lattice sweep
    rng = np.random.default_rng(29)
    for n in (3, 6, 9):
        net = random_network(rng, n)
        for dist in beliefs_of_every_kind(rng, n)[::2]:
            explicit = Explicit(dist.pmf_vector())
            assert np.allclose(plan_failure_risks(net, dist),
                               plan_failure_risks(net, explicit), rtol=0.0, atol=1e-14)


def local_by_posteriors(net, dist, insp, costs):
    """Prior plan and (silence row, alarm row, value) of each component, by
    re-optimising on each ``posterior_given_observation``: the reference route."""
    prior_plan, prior_loss = optimal_plan(net, dist, costs)
    rows = []
    for i in range(net.n_components):
        row = {SILENCE: (prior_plan, prior_loss), ALARM: (prior_plan, prior_loss)}
        value = 0.0
        for y, p_y, _ in _outcomes(dist, i, insp):
            losses = plan_losses(net, posterior_given_observation(dist, i, y, insp), costs)
            row[y] = _cheapest(losses, costs.c_fail)
            value += p_y * (float(losses[prior_plan]) - row[y][1])
        rows.append((row[SILENCE], row[ALARM], value))
    return prior_plan, rows


def assert_local_matches_posteriors(net, dist, insp, costs):
    report = voi_local(net, dist, insp, costs)
    prior_plan, rows = local_by_posteriors(net, dist, insp, costs)
    assert report.prior_plan == prior_plan
    table = report.action_table
    for i, (silence, alarm, value) in enumerate(rows):
        assert (table.silence_plans[i], table.alarm_plans[i]) == (silence[0], alarm[0]), i
        assert table.silence_losses[i] == pytest.approx(silence[1], rel=1e-12)
        assert table.alarm_losses[i] == pytest.approx(alarm[1], rel=1e-12)
        assert report.voi[i] == pytest.approx(value, rel=1e-9, abs=1e-15)


def split_beliefs(kind, rng):
    """Beliefs whose inspected block is a chunk, a scattered group, a full table or a wide block."""
    if kind == "independent":  # fused chunks
        return [Independent(rng.uniform(0.05, 0.95, size=6))]
    if kind == "groups":  # a scattered three-member group takes the lattice
        return [CommonCauseGroups([Group((0, 2, 5), 0.2, 0.4), Group((1, 3), 0.3, 0.2),
                                   Group((4,), 0.1)])]
    if kind == "explicit":  # one block as wide as the network
        return [Explicit(w / w.sum())
                for w in (rng.uniform(0.01, 1.0, size=1 << n) for n in (5, 6, 7))]
    wide = rng.uniform(0.01, 1.0, size=32)  # a 5-bit block, members out of bit order
    return [JointDistribution([((6, 0, 3, 2, 5), _frozen(wide / wide.sum())),
                               ((1,), _frozen([0.3, 0.7])), ((4,), _frozen([0.15, 0.85]))])]


@pytest.mark.parametrize("insp", [PERFECT_INSPECTION, InspectionModel(0.05, 0.1)],
                         ids=["perfect", "noisy"])
@pytest.mark.parametrize("kind", ["independent", "groups", "explicit", "mixed"])
def test_split_risks_reweight_into_the_posterior_risks(kind, insp):
    rng = np.random.default_rng(43)
    for dist in split_beliefs(kind, rng):
        n = dist.n_components
        net = random_network(rng, n)
        prior = plan_failure_risks(net, dist)
        masks = np.arange(1 << n)
        unit = LocalCostModel.uniform(n, 1.0, 0.0)  # brute-force losses are the risks
        seen = []
        for i, risks, masses in _split_risks((~net.truth_table()).astype(float), _steps(dist)):
            seen.append(i)
            np.testing.assert_allclose(risks[0] + risks[1], prior, rtol=1e-12, atol=0.0)
            # with i working, repairing it changes nothing
            working = risks[1].reshape(-1, 2, 1 << i)
            assert np.array_equal(working[:, 0], working[:, 1]), i
            for y in (SILENCE, ALARM):
                w = _likelihood(i, y, insp)
                z = w[0] * masses[0] + w[1] * masses[1]
                np.testing.assert_allclose(
                    (w[0] * risks[0] + w[1] * risks[1]) / z,
                    plan_failure_risks(net, posterior_given_observation(dist, i, y, insp)),
                    rtol=1e-12, atol=0.0)
            for state in (0, 1):
                restricted = dist.pmf_vector() * (((masks >> i) & 1) == state)
                np.testing.assert_allclose(risks[state], masses[state] * brute_force_plan_risks(
                    net, Explicit(restricted / restricted.sum()), unit), rtol=1e-12, atol=0.0)
        assert sorted(seen) == list(range(n))
        assert_local_matches_posteriors(net, dist, insp, LocalCostModel(
            1.0, rng.uniform(0.01, 0.3, size=n)))


@pytest.mark.parametrize("per_sweep", [1, 2, 3])
@pytest.mark.parametrize("kind", ["explicit", "mixed"])
def test_split_in_groups_under_the_byte_budget_matches_one_batch(monkeypatch, kind, per_sweep):
    # a budget below a lattice step's 2k tables sweeps its members per_sweep
    # at a time; each pair matches the step's split in one batch, R_i1 still
    # ignores repairing i, and the local metric picks the same plans
    rng = np.random.default_rng(59)
    insp, lattice = InspectionModel(0.05, 0.1), local_metrics._lattice
    for dist in split_beliefs(kind, rng):
        n = dist.n_components
        net = random_network(rng, n)
        fail, steps = (~net.truth_table()).astype(float), _steps(dist)
        costs = LocalCostModel(1.0, rng.uniform(0.01, 0.3, size=n))
        whole = {i: risks for i, risks, _ in _split_risks(fail, steps)}
        report = voi_local(net, dist, insp, costs)
        batches = []
        with monkeypatch.context() as m:
            widest = max(table.size for _, table in steps)
            m.setattr(local_metrics, "SPLIT_BYTES", per_sweep * 16 * (fail.size + widest))
            m.setattr(local_metrics, "_lattice", lambda risk, members, tables:
                      batches.append(len(tables)) or lattice(risk, members, tables))
            for i, risks, _ in _split_risks(fail, steps):
                np.testing.assert_allclose(risks, whole[i], rtol=1e-13, atol=0.0)
                working = risks[1].reshape(-1, 2, 1 << i)
                assert np.array_equal(working[:, 0], working[:, 1]), i
            grouped = voi_local(net, dist, insp, costs)
        for plans in ("silence_plans", "alarm_plans"):
            assert getattr(grouped.action_table, plans) == getattr(report.action_table, plans)
        np.testing.assert_allclose(grouped.voi, report.voi, rtol=1e-9, atol=1e-15)
        # the batches of both grouped splits above: k // per_sweep full groups and the rest
        sizes = [len(members) for members, _ in steps if not local_metrics._fuses(members)]
        expected = sum(([2 * per_sweep] * (k // per_sweep) + [2 * (k % per_sweep)]
                        * (k % per_sweep > 0) for k in sizes), [])
        assert sorted(b for b in batches if b > 1) == sorted(expected * 2)


def test_alarm_on_a_component_that_never_fails_is_priced_from_the_working_half():
    # under false alarms the alarm has positive probability, but the risks
    # restricted to the component failed are all zero: the alarm row comes
    # from the working half alone, with no ConditioningError
    insp = InspectionModel(0.1, 0.05)
    net = Network(FormulaTree(series(0, parallel(1, 2), 3, parallel(4, 5))))
    probs = [0.0, 0.3, 0.2, 0.1, 0.4, 0.25]
    costs = LocalCostModel(1.0, (0.05, 0.1, 0.02, 0.08, 0.03, 0.06))
    # the component in a fused chunk, and in a 6-bit lattice block
    for dist in (Independent(probs), Explicit(Independent(probs).pmf_vector())):
        assert _outcomes(dist, 0, insp)[1][:2] == (ALARM, pytest.approx(0.1, rel=1e-12))
        splits = _split_risks((~net.truth_table()).astype(float), _steps(dist))
        _, risks, masses = next(s for s in splits if s[0] == 0)
        assert masses[0] == 0.0 and not risks[0].any()
        assert_local_matches_posteriors(net, dist, insp, costs)


@pytest.mark.parametrize("kind", ["explicit", "scattered"])
def test_local_metric_sweeps_each_component_once(monkeypatch, kind):
    # each component is swept once, in one sweep of the halves of all the
    # members of its lattice step as a batch: not one sweep per member, nor
    # two per posterior
    leaves = []
    sweep = local_metrics._sweep

    def counted(p, f, r, plan, out):
        if r <= local_metrics.CHUNK_BITS:
            leaves.append(len(p))
        sweep(p, f, r, plan, out)

    monkeypatch.setattr(local_metrics, "_sweep", counted)
    rng = np.random.default_rng(47)
    if kind == "explicit":  # one 7-bit block
        n = 7
        w = rng.uniform(0.01, 1.0, size=1 << n)
        dist = Explicit(w / w.sum())
    else:  # a scattered 6-member group, then singles fused into a scattered 3-bit step
        n = 9
        dist = CommonCauseGroups([Group((0, 2, 3, 5, 6, 8), 0.2, 0.4), Group((1,), 0.1),
                                  Group((4,), 0.15), Group((7,), 0.3)])
    voi_local(random_network(rng, n), dist, InspectionModel(0.05, 0.1),
              LocalCostModel.uniform(n, 1.0, 0.05))
    leaves_of = lambda bits: 1 << max(bits - local_metrics.CHUNK_BITS, 0)  # noqa: E731
    steps = _steps(dist)
    lattice = [members for members, _ in steps if not local_metrics._fuses(members)]
    assert len(lattice) == len(steps) == (1 if kind == "explicit" else 2)
    # each step sweeps alone in the prior and in the split of every other
    # step, and as its members' 2k halves in its own split
    expected = sum((([1] * len(steps) + [2 * len(m)]) * leaves_of(len(m)) for m in lattice), [])
    assert sorted(leaves) == sorted(expected)
    if kind == "explicit":
        assert len(leaves) == 2 * leaves_of(n)


def local_by_full_scan(net, dist, insp, costs):
    """``voi_local``'s report with each outcome's posterior losses formed over
    all 2^N plans from ``_split_risks``: the search without the heuristic's bound."""
    fail, repair = (~net.truth_table()).astype(float), _bit_sums(costs.c_repair)
    prior_plan, prior_loss = _cheapest(plan_losses(net, dist, costs), costs.c_fail)
    rows = [None] * net.n_components
    for i, split, masses in _split_risks(fail, _steps(dist)):
        row = {}
        value = 0.0
        for y, p_y, w in _outcomes(dist, i, insp):
            losses = costs.c_fail * _posterior_mean(masses, split, w) + repair
            row[y] = _cheapest(losses, costs.c_fail)
            value += p_y * (float(losses[prior_plan]) - row[y][1])
        rows[i] = (row, value)
    return local_metrics._report("local", prior_plan, prior_loss, rows)


def test_bounded_posterior_search_is_the_full_scan(monkeypatch):
    # the same plans, losses and values, to the last bit, as pricing all 2^N plans
    rng = np.random.default_rng(67)
    sizes = []
    cheapest = local_metrics._cheapest
    monkeypatch.setattr(local_metrics, "_cheapest", lambda losses, c_fail:
                        sizes.append(len(losses)) or cheapest(losses, c_fail))
    cut = searches = 0
    for n in range(2, 11):
        net = random_network(rng, n)
        c_fail = float(rng.uniform(0.5, 5.0))
        drawn = rng.uniform(0.0, 0.3 * c_fail, size=n)
        for c_repair in (drawn, np.zeros(n), np.where(rng.random(n) < 0.5, 0.0, drawn)):
            costs = LocalCostModel(c_fail, c_repair)
            for dist in beliefs_of_every_kind(rng, n, certain=n % 2 == 1):
                for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
                    report = voi_local(net, dist, insp, costs)
                    assert report == local_by_full_scan(net, dist, insp, costs), (n, dist)
                    cut += sum(k < 1 << n for k in sizes)
                    searches += len(sizes) - 1
                    sizes.clear()
    # with costs drawn here, most posterior searches price only some of the plans
    assert cut > searches / 2


def test_near_tie_above_the_heuristic_bound_goes_to_the_lower_mask():
    # parallel(c0, c1): repairing either leaves no risk, so each single repair
    # costs its bill. After an alarm on c1 the least loss is c1's bill, from
    # the heuristic's flip 0b10, and c0's bill lies inside the tie band just
    # above it: the lowest-mask rule picks 0b01, which the bound must keep
    net = Network(FormulaTree(parallel(0, 1)))
    dist = Independent([0.5, 0.05])
    costs = LocalCostModel(1.0, (0.1 + PLAN_TIE_RTOL / 2, 0.1))
    report = voi_local(net, dist, PERFECT_INSPECTION, costs)
    assert report.prior_plan == 0
    assert report.action_table.alarm_plans[1] == 0b01
    assert report.action_table.alarm_losses[1] == costs.c_repair[0]
    assert report == local_by_full_scan(net, dist, PERFECT_INSPECTION, costs)


def test_bound_is_the_larger_over_both_outcomes():
    # series(c0, c1) where c0 fails exactly when c1 works, or both work. The
    # prior repairs c0. Inspecting c0, an alarm keeps that cheap repair, and
    # a silence makes c1's failure likely and repairs c1, whose bill is above
    # the alarm's bound; inspecting c1, the alarm needs c1's repair, above the
    # silence's bound. Each search must reach past its own outcome's bound.
    net = Network(FormulaTree(series(0, 1)))
    dist = Explicit([0.0, 0.3, 0.5, 0.2])
    costs = LocalCostModel(1.0, (0.1, 0.4))
    report = voi_local(net, dist, PERFECT_INSPECTION, costs)
    assert report.prior_plan == 0b01
    table = report.action_table
    assert (table.silence_plans, table.alarm_plans) == ((0b10, 0b01), (0b01, 0b10))
    assert report == local_by_full_scan(net, dist, PERFECT_INSPECTION, costs)


def test_layered16_posterior_searches_price_a_few_plans(monkeypatch):
    # the prior's scan prices all 2^16 plans; the 32 posterior searches only
    # the plans whose repair bill is within the heuristic's bound
    sizes = []
    cheapest = local_metrics._cheapest
    monkeypatch.setattr(local_metrics, "_cheapest", lambda losses, c_fail:
                        sizes.append(len(losses)) or cheapest(losses, c_fail))
    doc = parse_scenario_file(scenario_path("layered16.json"))
    voi_local(doc.build_network(), doc.build_distribution(), doc.build_inspection(),
              doc.build_costs())
    assert sizes[0] == 1 << 16
    assert len(sizes) == 33 and max(sizes[1:]) <= 17


def test_cost_model_validation():
    assert LocalCostModel(1.0, (0.0, 0.5)).c_repair == (0.0, 0.5)
    assert LocalCostModel(1e308, (1e307, 1e307)).c_repair == (1e307, 1e307)
    for c_fail, c_repair in ((0.0, (0.1,)), (math.nan, (0.1,)), (math.inf, (0.1,)),
                             (1.0, (-0.1,)), (1.0, (math.nan,)), (1.0, (0.1, math.inf)),
                             # each cost finite, but the worst loss overflows
                             (1.0, (1e308, 1e308)), (1.7e308, (1e307,))):
        with pytest.raises(ValueError):
            LocalCostModel(c_fail, c_repair)


def test_repair_cost_vector_matches_repair_cost():
    rng = np.random.default_rng(31)
    for n in range(1, 11):
        costs = LocalCostModel(1.0, rng.uniform(0.0, 3.0, size=n))
        expected = np.array([repair_cost(plan, costs) for plan in range(1 << n)])
        assert np.array_equal(_bit_sums(costs.c_repair), expected)


def test_local_metrics_leave_no_reference_cycles():
    # an array held in a reference cycle outlives its call until the cyclic
    # collector runs; every 2^N array of the plan-risk engine must be freed
    # by reference counting
    rng = np.random.default_rng(17)
    net = Network(FormulaTree(series(0, parallel(1, 2), 3)))
    insp = InspectionModel(0.05, 0.1)
    costs = LocalCostModel.uniform(4, 1.0, 0.05)
    beliefs = beliefs_of_every_kind(rng, 4)
    gc.collect()
    gc.disable()
    try:
        for dist in beliefs:
            voi_local(net, dist, insp, costs)
            voi_heuristic(net, dist, insp, costs)
            posterior_action_table(net, dist, insp, costs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_posterior_action_table_three_branch_alt_costs():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    costs = LocalCostModel(1.0, (0.1, 0.2, 0.1, 0.1, 0.1, 0.1))
    table = posterior_action_table(net, dist, PERFECT_INSPECTION, costs)
    names = [f"c{i}" for i in range(1, 7)]
    expected = {
        "c1": ({"c4"}, {"c3", "c4"}),
        "c2": (set(), {"c3", "c4"}),
        "c3": ({"c4"}, {"c3", "c4"}),
        "c4": (set(), {"c4"}),
        "c5": ({"c6"}, {"c4"}),
        "c6": (set(), {"c6"}),
    }
    for i, name in enumerate(names):
        silence = {names[j] for j in range(6) if (table.silence_plans[i] >> j) & 1}
        alarm = {names[j] for j in range(6) if (table.alarm_plans[i] >> j) & 1}
        assert (silence, alarm) == expected[name], name
    # stored losses recompute exactly
    for i in range(6):
        post = Independent(THREE_BRANCH_PROBS).condition({i: 1})
        assert table.silence_losses[i] == pytest.approx(
            plan_expected_loss(net, post, table.silence_plans[i], costs), abs=1e-10)


def test_voi_local_three_branch():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    report = voi_local(net, dist, PERFECT_INSPECTION,
                       LocalCostModel.uniform(6, 1.0, 0.1))
    assert report.best == 1
    assert report.prior_plan == 0b000010
    assert report.voi == pytest.approx(
        (0.0332, 0.06, 0.0288, 0.02696, 0.0252, 0.01408), abs=1e-12)
    # mixture identity against the stored table
    for i in range(6):
        h = THREE_BRANCH_PROBS[i]
        mixed = (1 - h) * report.action_table.silence_losses[i] \
            + h * report.action_table.alarm_losses[i]
        assert report.posterior_loss[i] == pytest.approx(mixed, abs=1e-10)


def test_voi_local_alt_costs_keeps_second_component_on_top():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    costs = LocalCostModel(1.0, (0.1, 0.2, 0.1, 0.1, 0.1, 0.1))
    local = voi_local(net, dist, PERFECT_INSPECTION, costs)
    assert local.prior_plan == 0b001000
    assert local.best == 1
    heur = voi_heuristic(net, dist, PERFECT_INSPECTION, costs)
    assert heur.best == 3  # the heuristic overrates the planned repair
    assert heur.voi[3] == pytest.approx(0.05, abs=1e-12)
    assert all(h <= l + 1e-10 for h, l in zip(heur.voi, local.voi))


def test_series_pair_closed_form_loss():
    # two in series, equal repair costs, perfect inspections: the posterior
    # loss reduces to p_i * c_r + min(c_r, p_j * c_fail)
    c_fail, c_r = 1.0, 0.2
    for p1, p2 in ((0.5, 0.1), (0.1, 0.05), (0.3, 0.3)):
        net = Network(FormulaTree(series(0, 1)))
        dist = Independent([p1, p2])
        report = voi_local(net, dist, PERFECT_INSPECTION,
                           LocalCostModel.uniform(2, c_fail, c_r))
        for i, (p_i, p_j) in enumerate(((p1, p2), (p2, p1))):
            assert report.posterior_loss[i] == pytest.approx(
                p_i * c_r + min(c_r, p_j * c_fail), abs=1e-12)


def test_heuristic_bounded_by_local():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        net = random_network(rng, n)
        dist = random_distribution(rng, n, lo=0.05, hi=0.9)
        insp = InspectionModel(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3)))
        costs = LocalCostModel(1.0, rng.uniform(0.01, 0.6, size=n))
        local = voi_local(net, dist, insp, costs)
        heur = voi_heuristic(net, dist, insp, costs)
        for h, l in zip(heur.voi, local.voi):
            assert h >= -1e-10
            assert h <= l + 1e-10
        # an inspection that confirms the prior plan either way is worth nothing
        for report in (heur, local):
            table = report.action_table
            for i, v in enumerate(report.voi):
                if table.silence_plans[i] == table.alarm_plans[i] == report.prior_plan:
                    assert v == 0.0


def heuristic_by_posteriors(net, dist, insp, costs):
    """Prior plan P and (silence row, alarm row, value) of each component by the
    heuristic's definition: after an outcome that may change the action on i
    (an alarm when P leaves i alone, a silence when P repairs it), the cheaper
    of P and P with i's action flipped, else P, each priced on
    ``posterior_given_observation``."""
    prior_plan, prior_loss = optimal_plan(net, dist, costs)
    rows = []
    for i in range(net.n_components):
        repairs = (prior_plan >> i) & 1
        row = {SILENCE: (prior_plan, prior_loss), ALARM: (prior_plan, prior_loss)}
        value = 0.0
        for y, p_y, _ in _outcomes(dist, i, insp):
            post = posterior_given_observation(dist, i, y, insp)
            news = (y == ALARM) != bool(repairs)
            loss = {plan: plan_expected_loss(net, post, plan, costs)
                    for plan in ([prior_plan, prior_plan ^ (1 << i)] if news else [prior_plan])}
            least = min(loss.values())
            pick = min(plan for plan in loss if loss[plan] <= least + PLAN_TIE_RTOL * costs.c_fail)
            row[y] = pick, loss[pick]
            value += p_y * (loss[prior_plan] - loss[pick])
        rows.append((row[SILENCE], row[ALARM], value))
    return prior_plan, rows


def test_heuristic_matches_its_definition():
    rng = np.random.default_rng(61)
    flips = 0
    for n in range(2, 8):
        for _ in range(4):
            net = random_network(rng, n)
            costs = LocalCostModel(float(rng.uniform(0.5, 2.0)), rng.uniform(0.01, 0.4, size=n))
            # blocks of scattered members, listed out of bit order
            order = [int(m) for m in rng.permutation(n)]
            cuts = [0, *sorted(rng.choice(np.arange(1, n), size=(n - 1) // 2, replace=False)), n]
            blocks = []
            for a, b in zip(cuts, cuts[1:]):
                w = rng.uniform(0.01, 1.0, size=1 << (b - a))
                blocks.append((tuple(order[a:b]), _frozen(w / w.sum())))
            for dist in (*beliefs_of_every_kind(rng, n), JointDistribution(blocks)):
                for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
                    report = voi_heuristic(net, dist, insp, costs)
                    prior_plan, rows = heuristic_by_posteriors(net, dist, insp, costs)
                    assert report.prior_plan == prior_plan
                    table = report.action_table
                    for i, (silence, alarm, value) in enumerate(rows):
                        assert (table.silence_plans[i], table.alarm_plans[i]) == (
                            silence[0], alarm[0]), i
                        for got, want in ((table.silence_losses[i], silence[1]),
                                          (table.alarm_losses[i], alarm[1]),
                                          (report.voi[i], value)):
                            assert got == pytest.approx(want, rel=1e-12, abs=0.0), i
                        flips += (silence[0], alarm[0]) != (prior_plan, prior_plan)
    # rows where an outcome moves the plan, so the flip and the tie rule are exercised
    assert flips >= 50


def heuristic_by_full_masses(net, dist, insp, costs, prior_plan):
    """Per component, ({outcome: (plan, loss)}, value) of the heuristic around
    ``prior_plan``, with the kept plan and each flip priced from its own full
    failure mass pmf(s)·fail(s | plan) over all 2^N states."""
    pmf, fail = dist.pmf_vector(), ~net.truth_table()
    masks = np.arange(fail.size)
    rows = []
    for i in range(net.n_components):
        plans = (prior_plan, prior_plan ^ (1 << i))
        mass = {plan: _halves(pmf * fail[masks | plan], i) for plan in plans}
        row, value = {}, 0.0
        for y, p_y, w in _outcomes(dist, i, insp):
            choices = sorted(plans) if y == (prior_plan >> i) & 1 else [prior_plan]
            loss = {plan: costs.c_fail * _posterior_mean(_halves(pmf, i), mass[plan], w)
                    + repair_cost(plan, costs) for plan in choices}
            best, least = _cheapest(list(loss.values()), costs.c_fail)
            row[y] = choices[best], least
            value += p_y * (loss[prior_plan] - least)
        rows.append((row, value))
    return rows


def test_heuristic_at_every_plan_is_priced_as_from_full_masses():
    # every plan, not only the optimal one: the all-ones plan, plans that
    # repair the inspected component and plans that leave it alone
    rng = np.random.default_rng(67)
    for n in (2, 4, 6):
        for certain in (False, True):
            net = random_network(rng, n)
            costs = LocalCostModel(float(rng.uniform(0.5, 2.0)), rng.uniform(0.0, 0.5, size=n))
            for dist in beliefs_of_every_kind(rng, n, certain=certain):
                pmf, fail = dist.pmf_vector(), ~net.truth_table()
                for plan in range(1 << n):
                    loss = plan_expected_loss(net, dist, plan, costs)
                    mass = pmf * fail[np.arange(fail.size) | plan]
                    assert loss == costs.c_fail * float(mass.sum()) + repair_cost(plan, costs)
                    for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
                        report = local_metrics._voi_heuristic(net, dist, insp, costs, plan, loss)
                        table = report.action_table
                        for i, (row, value) in enumerate(
                                heuristic_by_full_masses(net, dist, insp, costs, plan)):
                            assert report.voi[i] == value, (plan, i)
                            assert row.get(SILENCE, (plan, loss)) == (
                                table.silence_plans[i], table.silence_losses[i]), (plan, i)
                            assert row.get(ALARM, (plan, loss)) == (
                                table.alarm_plans[i], table.alarm_losses[i]), (plan, i)


def test_local_value_of_inspections_that_change_no_plan_is_zero():
    doc = parse_scenario_file(scenario_path("layered16.json"))
    net = doc.build_network()
    report = voi_local(net, doc.build_distribution(), doc.build_inspection(),
                       doc.build_costs())
    table = report.action_table
    unchanged = [i for i in range(net.n_components)
                 if table.silence_plans[i] == table.alarm_plans[i] == report.prior_plan]
    assert len(unchanged) >= 8
    for i in unchanged:
        assert report.voi[i] == 0.0, net.names[i]
        assert report.posterior_loss[i] == report.prior_loss


def test_degenerate_inspection_is_worth_zero():
    # an outcome of probability zero takes the other outcome's row: both rows
    # are the prior plan at the prior loss, and the inspection is worth 0
    net = Network(FormulaTree(series(0, 1)))
    costs = LocalCostModel.uniform(2, 1.0, 0.1)
    for p in (0.0, 1.0):
        for dist in (Independent([p, 0.4]), Explicit(Independent([p, 0.4]).pmf_vector())):
            prior_plan, prior_loss = optimal_plan(net, dist, costs)
            local = voi_local(net, dist, PERFECT_INSPECTION, costs)
            heuristic = voi_heuristic(net, dist, PERFECT_INSPECTION, costs)
            actions = posterior_action_table(net, dist, PERFECT_INSPECTION, costs)
            for table in (local.action_table, heuristic.action_table, actions):
                assert table.silence_plans[0] == table.alarm_plans[0] == prior_plan
                assert table.silence_losses[0] == table.alarm_losses[0] == prior_loss
            for report in (local, heuristic):
                assert report.voi[0] == 0.0
                assert report.posterior_loss[0] == prior_loss
                assert report.voi[1] > 0.0


def test_heuristic_tie_goes_to_the_lower_mask():
    # repairing c1 is free, so the prior plan repairs it; after a silence c1
    # works, keeping and dropping that repair tie exactly, and the lower mask
    # (without c1) wins in the heuristic as in the local metric
    net = Network(FormulaTree(series(0, 1)))
    dist = Independent([0.3, 0.2])
    costs = LocalCostModel(1.0, (0.0, 0.5))
    local = voi_local(net, dist, PERFECT_INSPECTION, costs)
    heuristic = voi_heuristic(net, dist, PERFECT_INSPECTION, costs)
    assert heuristic.prior_plan == local.prior_plan == 0b01
    for report in (local, heuristic):
        assert report.action_table.silence_plans[0] == 0
        assert report.action_table.silence_losses[0] == pytest.approx(0.2, abs=1e-15)
        assert report.voi[0] == 0.0


def test_series_pair_policy_independent_cases():
    # both below the cost ratio: the more vulnerable component wins
    assert series_pair_policy(0.1, 0.05, 0.0, 0.2) == 1
    # symmetric marginals tie
    assert series_pair_policy(0.3, 0.3, 0.0, 0.2) == 0
    # direct formula evaluation: L(1) = 0.5*0.2 + min(0.2, 0.1) = 0.2 beats
    # L(2) = 0.1*0.2 + min(0.2, 0.5) = 0.22, so the vulnerable one still wins
    assert series_pair_policy(0.5, 0.1, 0.0, 0.2) == 1
    # pushing the partner risk up flips the preference to the reliable one
    assert series_pair_policy(0.5, 0.15, 0.0, 0.2) == 2


def test_series_pair_policy_matches_full_machinery():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p1, p2 = rng.uniform(0.02, 0.6, size=2)
        peak = float(rng.uniform(0.05, 0.5))
        choice = series_pair_policy(float(p1), float(p2), 0.0, peak)
        net = Network(FormulaTree(series(0, 1)))
        dist = Independent([p1, p2])
        report = voi_local(net, dist, PERFECT_INSPECTION,
                           LocalCostModel.uniform(2, 1.0, peak))
        if choice:
            assert report.voi[choice - 1] == pytest.approx(
                max(report.voi), abs=1e-12)
        else:
            assert report.voi[0] == pytest.approx(report.voi[1], abs=1e-12)


def test_series_pair_policy_correlated():
    # positive correlation keeps the vulnerable-component region growing;
    # here conditioning makes the partner risk follow the inspected state
    assert series_pair_policy(0.35, 0.3, 0.5, 0.2) == 1
    with pytest.raises(InfeasibleCorrelationError):
        series_pair_policy(0.5, 0.01, 0.9, 0.2)
    with pytest.raises(ValueError):
        series_pair_policy(0.1, 0.1, 0.0, 0.7)  # cost ratio beyond one half


def test_series_pair_policy_negative_correlation_counterexample():
    # the joint with failure cross-moment p1*p2 + rho*sqrt(...) does not
    # equalize the two inspection values at negative correlation; freeze one
    # worked counterexample so any change of construction shows up
    p1, p2, rho, peak = 0.3, 0.1, -0.2, 0.2
    both = p1 * p2 + rho * np.sqrt(p1 * 0.7 * p2 * 0.9)
    l1 = p1 * peak + p1 * min(peak, both / p1) \
        + (1 - p1) * min(peak, (p2 - both) / (1 - p1))
    l2 = p2 * peak + p2 * min(peak, both / p2) \
        + (1 - p2) * min(peak, (p1 - both) / (1 - p2))
    # neither min binds for the first component, so l1 collapses to
    # p1 * peak + p2; for the second the partner risk saturates at peak
    assert l1 == pytest.approx(p1 * peak + p2, abs=1e-12)
    assert l2 == pytest.approx(p2 * peak + both + (1 - p2) * peak, abs=1e-12)
    assert l1 < l2
    assert series_pair_policy(p1, p2, rho, peak) == 1


def test_cumulative_approximation():
    costs = LocalCostModel(1.0, (0.2, 0.3))
    dist = Independent([0.2, 0.0])
    voi = cumulative_approx_voi(dist, costs)
    assert voi[0] == pytest.approx(0.2 * (1 - 0.2))  # at the peak
    assert voi[1] == 0.0
    with pytest.raises(NotApplicableError):
        cumulative_approx_voi(Explicit([0.25] * 4),
                              LocalCostModel.uniform(2, 1.0, 0.1))


def test_cumulative_approximation_tracks_exact_at_small_risk():
    c_fail = 1.0
    for p1, p2, c_r in ((0.008, 0.003, 0.005), (0.01, 0.008, 0.005),
                        (0.004, 0.009, 0.006)):
        net = Network(FormulaTree(series(0, 1)))
        dist = Independent([p1, p2])
        exact = voi_local(net, dist, PERFECT_INSPECTION,
                          LocalCostModel.uniform(2, c_fail, c_r)).voi
        approx = cumulative_approx_voi(dist, LocalCostModel.uniform(2, c_fail, c_r))
        bound = 10.0 * c_fail * max(p1, p2) ** 2
        for e, a in zip(exact, approx):
            assert abs(e - a) <= bound
