"""Plan optimization, local/heuristic inspection values, and pair policies."""

import functools
import gc
import math

import numpy as np
import pytest

from netvoi import (PERFECT_INSPECTION, CommonCauseGroups, Explicit, FormulaTree,
                    Group, Independent, InfeasibleCorrelationError,
                    InspectionModel, LocalCostModel, Network, NotApplicableError, TruthTable,
                    apply_repairs, cumulative_approx_voi, optimal_plan, parallel,
                    plan_expected_loss, plan_failure_risks, plan_losses,
                    posterior_action_table, repair_cost,
                    series, series_pair_policy, system_failure_prob,
                    voi_heuristic, voi_local)
import netvoi.inference as inference
import netvoi.local_metrics as local_metrics
from netvoi.distributions import JointDistribution, _frozen, _reweight_blocks
from netvoi.inference import (ALARM, SILENCE, _intervals, _likelihood, _outcomes,
                              _posterior_mean, posterior_given_observation)
from netvoi.local_metrics import PLAN_TIE_RTOL, _cheapest, _split_risks, _steps
from netvoi.model import _bit_sums, _fold_halves
from netvoi.scenario import parse_scenario_file

from conftest import (brute_force_plan_risks, make_three_branch, random_distribution,
                      random_network, scenario_path, THREE_BRANCH_PROBS)
from test_golden import scenario_files
from test_model import random_st_graph


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
            halves = np.array([local_metrics._half(w[0], bit, state)
                               for bit in range(k) for state in (0, 1)])
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
        splits = _split_risks((~net.truth_table()).astype(float), _steps(dist), range(n))
        np.testing.assert_allclose(next(splits), prior, rtol=1e-14, atol=0.0)
        for i, risks, masses in splits:
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
    # a budget below a lattice step's rows sweeps them per_sweep at a time,
    # R's row ahead of the first step's; R and each split match the step's
    # batch in one group, R_i1 still ignores repairing i, and the local
    # metric picks the same plans
    rng = np.random.default_rng(59)
    insp, lattice = InspectionModel(0.05, 0.1), local_metrics._lattice
    for dist in split_beliefs(kind, rng):
        n = dist.n_components
        net = random_network(rng, n)
        fail, steps = (~net.truth_table()).astype(float), _steps(dist)
        costs = LocalCostModel(1.0, rng.uniform(0.01, 0.3, size=n))
        whole = list(_split_risks(fail, steps, range(n)))
        report = voi_local(net, dist, insp, costs)
        batches = []
        with monkeypatch.context() as m:
            widest = max(table.size for _, table in steps)
            budget = per_sweep * 8 * (fail.size + widest)
            m.setattr(local_metrics, "SPLIT_BYTES", budget)
            m.setattr(local_metrics, "_lattice", lambda risk, members, tables:
                      batches.append(len(tables)) or lattice(risk, members, tables))
            splits = _split_risks(fail, steps, range(n))
            np.testing.assert_allclose(next(splits), whole[0], rtol=1e-13, atol=0.0)
            for (i, risks, _), (j, want, _) in zip(splits, whole[1:], strict=True):
                assert i == j
                np.testing.assert_allclose(risks, want, rtol=1e-13, atol=0.0)
                working = risks[1].reshape(-1, 2, 1 << i)
                assert np.array_equal(working[:, 0], working[:, 1]), i
            grouped = voi_local(net, dist, insp, costs)
        for plans in ("silence_plans", "alarm_plans"):
            assert getattr(grouped.action_table, plans) == getattr(report.action_table, plans)
        np.testing.assert_allclose(grouped.voi, report.voi, rtol=1e-9, atol=1e-15)

        # every lattice run of both grouped splits above. A step with k swept
        # members sweeps k rows, and the first such step R's row too, as many
        # at a time as the budget holds, after one run of each other lattice
        # step. The loop sweeps every member, voi_local those of larger
        # blocks: it reads each singleton's split off R, as none here fails
        # with probability below 2^-10
        def batches_of(swept):
            out, first = [], 1
            for s, (members, table) in enumerate(steps):
                k = len(swept.intersection(members))
                if k:
                    out += [1] * sum(not local_metrics._fuses(other)
                                     for t, (other, _) in enumerate(steps) if t != s)
                if k and not local_metrics._fuses(members):
                    group, rows = budget // (8 * (fail.size + table.size)), first + k
                    out += [group] * (rows // group) + [rows % group] * (rows % group > 0)
                first = first and not k
            return out

        wider = {m for members, _ in dist.blocks() if len(members) > 1 for m in members}
        assert sorted(batches) == sorted(batches_of(set(range(n))) + batches_of(wider))


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
        splits = _split_risks((~net.truth_table()).astype(float), _steps(dist), range(6))
        next(splits)
        _, risks, masses = next(s for s in splits if s[0] == 0)
        assert masses[0] == 0.0 and not risks[0].any()
        assert_local_matches_posteriors(net, dist, insp, costs)


@pytest.mark.parametrize("kind", ["explicit", "scattered"])
def test_local_metric_sweeps_each_component_once(monkeypatch, kind):
    # each component is swept once, in one sweep of its lattice step's table
    # and the working halves of all its members as a batch: not one sweep
    # per member, nor two per posterior, nor a run of its own for the prior
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
    # only steps that hold a larger block's member are split: the singles'
    # splits are read off the prior, R, the first split's row 0. Each step
    # sweeps alone in the split of every other such step, and as its members'
    # k working halves in its own split, after its table where it is the
    # first (here the only) one
    wider = {m for members, _ in dist.blocks() if len(members) > 1 for m in members}
    split = [m for m in lattice if wider.intersection(m)]
    expected = sum((([1] * (len(split) - (m in split)) + [1 + len(m)] * (m in split))
                    * leaves_of(len(m)) for m in lattice), [])
    assert sorted(leaves) == sorted(expected)
    if kind == "explicit":  # one lattice sweep for the whole table
        assert leaves == [1 + n] * leaves_of(n)


def test_first_split_row_is_the_prior_plan_risks(tmp_path):
    # R comes from the first split batch's row 0 (or, where every component
    # is read off, from a run of every step): it is the engine's R to rel
    # 1e-14, each split's halves at every plan add up to it to rel 1e-12, and
    # voi_local prices the same prior plan from it
    for name, path in scenario_files(tmp_path).items():
        doc = parse_scenario_file(path)
        net, dist, costs = doc.build_network(), doc.build_distribution(), doc.build_costs()
        splits = local_metrics._splits((~net.truth_table()).astype(float), _steps(dist),
                                       dist.blocks())
        prior = next(splits)
        np.testing.assert_allclose(prior, plan_failure_risks(net, dist),
                                   rtol=1e-14, atol=0.0, err_msg=name)
        for i, split, _ in splits:
            failed, working = split(np.arange(prior.size))
            np.testing.assert_allclose(failed + working, prior, rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} {i}")
        report = voi_local(net, dist, doc.build_inspection(), costs)
        assert report.prior_plan == optimal_plan(net, dist, costs)[0], name


def test_each_members_split_is_its_both_halves_sweep():
    # each swept member's (R - R_i1, R_i1) equals its step's two zero-padded
    # halves swept over the other steps, to rel 1e-12, on explicit tables and
    # scattered groups; R_i1 ignores repairing i exactly
    rng = np.random.default_rng(89)
    members_seen = 0
    for n in range(3, 11):
        net = random_network(rng, n)
        fail = (~net.truth_table()).astype(float)
        for certain in (False, True):
            for dist in beliefs_of_every_kind(rng, n, certain=certain)[1:]:
                steps = _steps(dist)
                wider = {m for members, _ in dist.blocks() if len(members) > 1 for m in members}
                want = {}
                for s, (members, table) in enumerate(steps):
                    shared = local_metrics._risks(fail, steps[:s] + steps[s + 1:])
                    for bit, m in enumerate(members):
                        halves = [local_metrics._half(table, bit, state) for state in (0, 1)]
                        want[m] = np.array(list(local_metrics._batch(shared, members, halves)))
                splits = _split_risks(fail, steps, wider)
                next(splits)
                for i, split, _ in splits:
                    np.testing.assert_allclose(split, want[i], rtol=1e-12, atol=0.0,
                                               err_msg=f"{n} {i}")
                    working = split[1].reshape(-1, 2, 1 << i)
                    assert np.array_equal(working[:, 0], working[:, 1]), (n, i)
                    members_seen += 1
    assert members_seen > 150


def losses_by_brute_force(net, dist, insp, costs):
    """Every plan's loss by ``plan_expected_loss``: under the prior, and for
    each component i, {outcome: losses} under ``posterior_given_observation``."""
    plans = range(1 << net.n_components)
    return [plan_expected_loss(net, dist, a, costs) for a in plans], [
        {y: [plan_expected_loss(net, posterior_given_observation(dist, i, y, insp), a, costs)
             for a in plans] for y, _, _ in _outcomes(dist, i, insp)}
        for i in range(net.n_components)]


def test_members_whose_difference_cancels_sweep_their_failed_half(monkeypatch):
    # one component at q = 1e-6 in an explicit table, and a shared-cause
    # group at p = 1e-4: R - R_i1 keeps few digits of those members' failed
    # halves, so each is swept, and only theirs. Every posterior loss of
    # every plan agrees with brute force there, and so does the report
    failed_halves = []
    half = local_metrics._half
    monkeypatch.setattr(local_metrics, "_half", lambda table, bit, state: (
        state == 0 and failed_halves.append((table.size, bit))) or half(table, bit, state))
    rng = np.random.default_rng(97)
    probs = rng.uniform(0.05, 0.5, size=7)
    probs[4] = 1e-6
    cases = [(Explicit(Independent(probs).pmf_vector()), {(128, 4)}),
             (CommonCauseGroups([Group((0, 2, 5), 1e-4, 0.3), Group((1, 3), 0.3, 0.2),
                                 Group((4,), 0.1), Group((6,), 0.2)]),
              {(8, 0), (8, 1), (8, 2)})]  # the group's step holds 0, 2 and 5 on bits 0-2
    for dist, cancels in cases:
        net = random_network(rng, 7)
        fail = (~net.truth_table()).astype(float)
        costs = LocalCostModel(1.0, rng.uniform(0.01, 0.2, size=7))
        repair = _bit_sums(costs.c_repair)
        for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
            failed_halves.clear()
            report = voi_local(net, dist, insp, costs)
            assert set(failed_halves) == cancels
            prior, posterior = losses_by_brute_force(net, dist, insp, costs)
            prior_plan = _cheapest(prior, costs.c_fail)[0]
            assert report.prior_plan == prior_plan
            table = report.action_table
            chosen = {SILENCE: (table.silence_plans, table.silence_losses),
                      ALARM: (table.alarm_plans, table.alarm_losses)}
            splits = local_metrics._splits(fail, _steps(dist), dist.blocks())
            next(splits)
            for i, split, masses in splits:
                value = 0.0
                halves = split(np.arange(1 << 7))
                for y, p_y, w in _outcomes(dist, i, insp):
                    losses = costs.c_fail * _posterior_mean(masses, halves, w) + repair
                    np.testing.assert_allclose(losses, posterior[i][y], rtol=1e-12, atol=0.0)
                    plan, least = _cheapest(posterior[i][y], costs.c_fail)
                    assert chosen[y][0][i] == plan, (i, y)
                    assert chosen[y][1][i] == pytest.approx(least, rel=1e-12, abs=0.0), (i, y)
                    value += p_y * max(posterior[i][y][prior_plan] - least, 0.0)
                assert report.voi[i] == pytest.approx(value, rel=1e-9, abs=1e-15), i


def test_dense_steps_apply_one_row_at_a_time(monkeypatch):
    # a dense step's matmul costs the same per row in a batch or alone, so
    # its split applies each member's working half, and in the first step
    # R's row, one table per _apply_chunk call, after one run of each other
    # step: on the substation (four dense steps, eleven group members) no
    # call holds more than one 2^N row
    tables = []
    apply_chunk = local_metrics._apply_chunk
    monkeypatch.setattr(local_metrics, "_apply_chunk", lambda risk, members, table:
                        tables.append(table.shape) or apply_chunk(risk, members, table))
    doc = parse_scenario_file(scenario_path("substation.json"))
    dist = doc.build_distribution()
    voi_local(doc.build_network(), dist, doc.build_inspection(), doc.build_costs())
    steps = _steps(dist)
    wider = {m for members, _ in dist.blocks() if len(members) > 1 for m in members}
    swept = [len(wider.intersection(members)) for members, _ in steps]
    assert all(local_metrics._fuses(members) for members, _ in steps) and sum(swept) == 11
    assert len(tables) == 1 + sum(len(steps) - 1 + k for k in swept if k)
    assert all(len(shape) == 1 for shape in tables)


def record_swept(monkeypatch, swept):
    """Append to ``swept`` the set of components each ``_split_risks`` call sweeps."""
    split_risks = local_metrics._split_risks
    monkeypatch.setattr(local_metrics, "_split_risks", lambda fail, steps, members:
                        swept.append(set(members)) or split_risks(fail, steps, members))
    return split_risks


@pytest.mark.parametrize("certain", [False, True], ids=["uncertain", "certain"])
def test_singleton_splits_read_off_the_prior_match_the_sweep(monkeypatch, certain):
    # the split of every singleton block that voi_local uses, read off the
    # prior's plan risks where it fails with probability at least 2^-10, else
    # swept, is its sweep's to rel 1e-12, and zero exactly where the sweep's
    # is, at whatever plans are asked for: a random subset, none or all. At
    # one plan the provider gives the floats it gives there in an array
    swept = []
    split_risks = record_swept(monkeypatch, swept)
    rng, pick = np.random.default_rng(71), np.random.default_rng(72)
    singles = read = 0
    for n in range(2, 11):
        net = random_network(rng, n)
        fail = (~net.truth_table()).astype(float)
        # independent, and groups that mix singletons with larger groups
        for dist in beliefs_of_every_kind(rng, n, certain=certain)[::2]:
            steps, blocks = _steps(dist), dist.blocks()
            ones = {members[0] for members, _ in blocks if len(members) == 1}
            reference = {i: (risks, masses)
                         for i, risks, masses in list(split_risks(fail, steps, ones))[1:]}
            swept.clear()
            splits = local_metrics._splits(fail, steps, blocks)
            next(splits)
            for i, split, masses in splits:
                if i not in ones:
                    continue
                want, want_masses = reference[i]
                subset = np.flatnonzero(pick.random(1 << n) < pick.random())
                for plans in (subset, np.arange(0), np.arange(1 << n)):
                    got = split(plans)
                    for half, exact in zip(got, want):
                        assert half.shape == plans.shape, (n, i)
                        assert np.array_equal(half == 0.0, exact[plans] == 0.0), (n, i)
                        np.testing.assert_allclose(half, exact[plans], rtol=1e-12, atol=0.0)
                    assert all(split(int(a)) == (f, w) for a, f, w in zip(plans, *got))
                assert masses == pytest.approx(want_masses, rel=1e-12, abs=0.0)
            assert len(swept) == 1
            rule = {members[0] for members, table in blocks
                    if len(members) == 1 and table[0] >= 2.0 ** -10 * table.sum()}
            assert ones - swept[0] == rule, (n, dist)
            singles += len(ones)
            read += len(rule)
    assert singles > 50 and read > 0


class TableNetwork:
    """Stand-in network whose system state is any table, monotone or not."""

    def __init__(self, works):
        self.n_components = works.size.bit_length() - 1
        self._works = works

    def truth_table(self):
        return self._works


def swept_splits(splits):
    """``_split_risks``'s R and vectors as ``_splits`` provides them: indexed."""
    yield next(splits)
    for i, halves, masses in splits:
        yield i, functools.partial(local_metrics._take, halves), masses


def test_components_whose_read_off_cancels_are_swept(monkeypatch):
    # R_i0 = R - R_i1 cancels where i rarely fails (q = 1e-6 and 1e-9 on
    # layered16): those components are swept. Where i's failure can only help
    # (a non-monotone system: c2..c4 in series with exactly one of c0, c1
    # working) its failure probability reads it off all the same. Every
    # report matches the route that sweeps them all
    swept = []
    record_swept(monkeypatch, swept)
    doc = parse_scenario_file(scenario_path("layered16.json"))
    probs = [0.01] * 16
    probs[3], probs[11] = 1e-6, 1e-9
    states = np.arange(32)
    works = (states >> 2 == 7) & ((states ^ (states >> 1)) & 1 == 1)
    cases = [(doc.build_network(), Independent(probs), doc.build_costs(), {3, 11}),
             (TableNetwork(works), Independent([0.1, 0.2, 0.05, 0.15, 0.1]),
              LocalCostModel(1.0, (0.05, 0.1, 0.02, 0.08, 0.03)), set())]
    for net, dist, costs, cancels in cases:
        swept.clear()
        report = voi_local(net, dist, PERFECT_INSPECTION, costs)
        assert set().union(*swept) == cancels
        swept.clear()
        with monkeypatch.context() as m:
            m.setattr(local_metrics, "_splits", lambda fail, steps, blocks: swept_splits(
                local_metrics._split_risks(fail, steps, range(net.n_components))))
            reference = voi_local(net, dist, PERFECT_INSPECTION, costs)
        assert set().union(*swept) == set(range(net.n_components))
        assert report.prior_plan == reference.prior_plan
        got, want = report.action_table, reference.action_table
        assert (got.silence_plans, got.alarm_plans) == (want.silence_plans, want.alarm_plans)
        for values in ("silence_losses", "alarm_losses"):
            assert getattr(got, values) == pytest.approx(getattr(want, values), rel=1e-12, abs=0.0)
        for values in ("voi", "posterior_loss"):
            assert getattr(report, values) == pytest.approx(getattr(reference, values),
                                                            rel=1e-12, abs=0.0)


def monotone_networks(rng, n):
    """A random formula tree, source-to-sink graph and monotone truth table over n components."""
    states = np.arange(1 << n)
    paths = rng.integers(1, 1 << n, size=int(rng.integers(1, 4)))  # the table's path sets
    return [random_network(rng, n), Network(random_st_graph(rng, n, directed=n % 2 == 0)),
            Network(TruthTable(((states[:, None] & paths) == paths).any(axis=1)))]


def rare_beliefs(rng, n):
    """An independent and a shared-cause belief over n components, where 40% of
    the failure probabilities lie in [1e-12, 3e-3] and 15% are 0 or 1; the
    groups include single-member ones."""
    def draw(size):
        u = rng.random(size)
        p = np.where(u < 0.4, 10.0 ** rng.uniform(-12.0, math.log10(3e-3), size=size),
                     rng.uniform(0.02, 0.98, size=size))
        return np.where(u >= 0.85, rng.integers(0, 2, size=size), p)

    order = [int(m) for m in rng.permutation(n)]
    cuts = [0] + sorted(set(rng.integers(1, n, size=n // 2 + 1).tolist())) + [n]
    groups = [Group(order[a:b], float(p), float(rng.uniform(0.0, 0.9)))
              for a, b, p in zip(cuts, cuts[1:], draw(len(cuts) - 1))]
    return Independent(draw(n)), CommonCauseGroups(groups, n_components=n)


def singleton_cases(seed):
    """(n, R, {i: (t0, t1, R_i0)}) for the singleton blocks i of rare beliefs
    on monotone networks, R_i0 swept from its zero-padded failed half."""
    rng = np.random.default_rng(seed)
    for n in [*range(2, 11)] * 4:
        for net in monotone_networks(rng, n):
            fail = (~net.truth_table()).astype(float)
            for dist in rare_beliefs(rng, n):
                steps = _steps(dist)
                singles = {members[0]: table.tolist()
                           for members, table in dist.blocks() if len(members) == 1}
                halves = {}
                for s, (members, table) in enumerate(steps):
                    shared = local_metrics._risks(fail, steps[:s] + steps[s + 1:])
                    for bit, i in enumerate(members):
                        if i in singles:
                            failed = next(local_metrics._batch(
                                shared, members, [local_metrics._half(table, bit, 0)]))
                            halves[i] = (*singles[i], failed)
                yield n, local_metrics._risks(fail, steps), halves


def test_an_independent_components_failed_half_is_its_share_of_r_at_least():
    # in a monotone system, R_i0 >= R t0 / (t0 + t1) at every plan for a
    # singleton block i of weights (t0, t1): the bound behind its read-off
    checked = 0
    for n, prior, halves in singleton_cases(101):
        for i, (t0, t1, failed) in halves.items():
            assert np.all(failed >= prior * t0 / (t0 + t1) * (1.0 - 1e-12)), (n, i)
            checked += 1
    assert checked > 600


def test_the_rule_sweeps_every_singleton_the_cancel_search_sweeps():
    # the search over all 2^N plans for R - R_i1 < 2^-10 R sweeps a subset of
    # the singletons with t0 < 2^-10 (t0 + t1); every other one has R = 0 at
    # every plan that repairs it, where both routes are exact
    searched = extra = 0
    for n, prior, halves in singleton_cases(103):
        for i, (t0, t1, _) in halves.items():
            working = np.repeat(prior.reshape(-1, 2, 1 << i)[:, 1:], 2, axis=1).reshape(-1)
            search = bool(np.less(prior - working * t1 / (t0 + t1), prior * 2.0 ** -10).any())
            rule = t0 < 2.0 ** -10 * (t0 + t1)
            assert rule or not search, (n, i)
            if rule and not search:
                assert not prior.reshape(-1, 2, 1 << i)[:, 1].any(), (n, i)
                extra += 1
            searched += search
    assert searched > 200 and extra > 20


def test_voi_local_sweeps_once_and_reads_off_by_failure_probability(monkeypatch):
    # one _split_risks call per voi_local, and a read-off exactly for the
    # singletons with t0 >= 2^-10 (t0 + t1) that have an outcome to price:
    # their bound's two plans, then one array of the plans under it
    swept, read = [], []
    record_swept(monkeypatch, swept)
    read_at = local_metrics._read_at
    monkeypatch.setattr(local_metrics, "_read_at", lambda prior, i, share, plans, out=None:
                        read.append((i, np.ndim(plans)))
                        or read_at(prior, i, share, plans, out))
    rng = np.random.default_rng(107)
    reads = 0
    for n in [*range(2, 11)] * 4:
        for net in monotone_networks(rng, n):
            costs = LocalCostModel(1.0, rng.uniform(0.0, 0.3, size=n))
            for dist in rare_beliefs(rng, n):
                swept.clear()
                read.clear()
                voi_local(net, dist, PERFECT_INSPECTION, costs)
                rule = [members[0] for members, table in dist.blocks()
                        if len(members) == 1 and table[0] >= 2.0 ** -10 * table.sum()]
                priced = [i for i in rule if _outcomes(dist, i, PERFECT_INSPECTION)]
                assert len(swept) == 1 and sorted(read) == sorted(
                    (i, d) for i in priced for d in (0, 0, 1)), (n, dist)
                assert swept[0].isdisjoint(rule) and swept[0] | set(rule) == set(range(n))
                reads += len(priced)
    assert reads > 200


def local_by_full_scan(net, dist, insp, costs, saving=lambda d: max(d, 0.0)):
    """``voi_local``'s report with each outcome's posterior losses formed over
    all 2^N plans from the split providers ``voi_local`` reads (``_splits``): the search
    without the heuristic's bound. ``saving`` maps each outcome's L_y(P) - least,
    for the prior plan P, to what it adds to the value."""
    fail, repair = (~net.truth_table()).astype(float), _bit_sums(costs.c_repair)
    splits = local_metrics._splits(fail, _steps(dist), dist.blocks())
    prior_plan, prior_loss = _cheapest(costs.c_fail * next(splits) + repair, costs.c_fail)
    rows = [None] * net.n_components
    for i, split, masses in splits:
        row = {}
        value = 0.0
        halves = split(np.arange(1 << net.n_components))
        for y, p_y, w in _outcomes(dist, i, insp):
            losses = costs.c_fail * _posterior_mean(masses, halves, w) + repair
            row[y] = _cheapest(losses, costs.c_fail)
            value += p_y * saving(float(losses[prior_plan]) - row[y][1])
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
    # at N = 18 every value is nonzero, and each search prices under 1% of the plans
    net, dist, insp, costs = scaling_network(18)
    sizes.clear()
    report = voi_local(net, dist, insp, costs)
    assert max(sizes[1:]) < (1 << 18) // 100 and min(report.voi) > 0.0
    assert report == local_by_full_scan(net, dist, insp, costs)


def scaling_network(n):
    """A parallel of series of 4 components, the last series taking the remainder:
    independent p uniform in [0.01, 0.2], inspection (0.05, 0.1), c_repair 0.01
    and c_fail = 0.03 / P_sys for the prior system failure probability P_sys."""
    starts = range(0, n - 3, 4)
    net = Network(FormulaTree(parallel(*(series(*range(a, b))
                                         for a, b in zip(starts, [*starts[1:], n])))))
    dist = Independent(np.random.default_rng(0).uniform(0.01, 0.2, size=n))
    costs = LocalCostModel.uniform(n, 0.03 / system_failure_prob(net, dist), 0.01)
    return net, dist, InspectionModel(0.05, 0.1), costs


def test_an_outcome_that_ties_the_prior_plan_saves_nothing():
    # with free repairs, plans tie in exact arithmetic, and the lowest-mask
    # rule may pick a plan whose float loss lies an ulp above the prior plan's:
    # that outcome saves 0, where its difference of losses is about -1e-17
    rng = np.random.default_rng(70)
    negative = 0
    for _ in range(8):
        for n in range(2, 11):
            net = random_network(rng, n)
            c_fail = float(rng.uniform(0.5, 5.0))
            costs = LocalCostModel(c_fail, np.where(rng.random(n) < 0.5, 0.0,
                                                    rng.uniform(0.0, 0.3 * c_fail, size=n)))
            for certain in (False, True):
                for dist in beliefs_of_every_kind(rng, n, certain=certain):
                    for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
                        local = voi_local(net, dist, insp, costs)
                        assert local == local_by_full_scan(net, dist, insp, costs)
                        assert min(local.voi) >= 0.0
                        assert min(voi_heuristic(net, dist, insp, costs).voi) >= 0.0
                        negative += min(local_by_full_scan(net, dist, insp, costs,
                                                           saving=float).voi) < 0.0
    # cases where an unclamped difference of losses reads below 0
    assert negative >= 2
    # a free repair of c0 that a silence all but rules out: dropping it costs
    # 3.4e-10, inside the tie band, so both metrics pick the lower mask, and
    # that outcome saves 0 rather than -2.4e-10
    net = Network(FormulaTree(series(0, 1)))
    costs = LocalCostModel(1.0, (0.0, 0.5))
    for metric in (voi_local, voi_heuristic):
        report = metric(net, Independent([0.3, 0.2]), InspectionModel(0.0, 1e-9), costs)
        assert (report.prior_plan, report.action_table.silence_plans[0]) == (0b01, 0)
        assert report.action_table.silence_losses[0] > report.prior_loss
        assert report.voi[0] == 0.0


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


def bounded_by_local_cases(tmp_path):
    """60 seeded random instances, then every golden scenario with its own inspection."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        net = random_network(rng, n)
        dist = random_distribution(rng, n, lo=0.05, hi=0.9)
        insp = InspectionModel(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3)))
        yield net, dist, insp, LocalCostModel(1.0, rng.uniform(0.01, 0.6, size=n))
    for path in scenario_files(tmp_path).values():
        doc = parse_scenario_file(path)
        yield (doc.build_network(), doc.build_distribution(), doc.build_inspection(),
               doc.build_costs())


def test_heuristic_bounded_by_local(tmp_path):
    # values are clamped sums, so never negative; the two metrics may take a
    # component's halves by different routes (a fold at P, a sweep, a
    # read-off), so the heuristic stays below the local value only to rounding
    for net, dist, insp, costs in bounded_by_local_cases(tmp_path):
        local = voi_local(net, dist, insp, costs)
        heur = voi_heuristic(net, dist, insp, costs)
        for h, l in zip(heur.voi, local.voi):
            assert h >= 0.0
            assert h <= l + 1e-13 * local.prior_loss
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
    failure mass pmf(s)·fail(s | plan) over all 2^N states: the halves of the
    pmf and of each mass by one fold of the full array, except the flip's
    failed half, summed as one contiguous copy."""
    pmf, fail = dist.pmf_vector(), ~net.truth_table()
    masks = np.arange(fail.size)

    def halves(x):
        return _fold_halves(x, np.empty(x.size // 2))

    rows = []
    for i in range(net.n_components):
        plans = (prior_plan, prior_plan ^ (1 << i))
        full = {plan: pmf * fail[masks | plan] for plan in plans}
        mass = {plan: halves(full[plan])[i] for plan in plans}
        failed = np.ascontiguousarray(full[plans[1]].reshape(-1, 2, 1 << i)[:, 0])
        mass[plans[1]] = float(failed.sum()), mass[plans[1]][1]
        row, value = {}, 0.0
        for y, p_y, w in _outcomes(dist, i, insp):
            choices = sorted(plans) if y == (prior_plan >> i) & 1 else [prior_plan]
            loss = {plan: costs.c_fail * _posterior_mean(halves(pmf)[i], mass[plan], w)
                    + repair_cost(plan, costs) for plan in choices}
            best, least = _cheapest(list(loss.values()), costs.c_fail)
            row[y] = choices[best], least
            value += p_y * max(loss[prior_plan] - least, 0.0)
        rows.append((row, value))
    return rows


def assert_heuristic_is_priced_from_full_masses(report, net, dist, insp, costs):
    """Plans equal, and values and losses to rel 1e-12, to ``heuristic_by_full_masses``'s."""
    plan, loss = report.prior_plan, report.prior_loss
    table = report.action_table
    for i, (row, value) in enumerate(heuristic_by_full_masses(net, dist, insp, costs, plan)):
        for y, plans, losses in ((SILENCE, table.silence_plans, table.silence_losses),
                                 (ALARM, table.alarm_plans, table.alarm_losses)):
            want_plan, want_loss = row.get(y, (plan, loss))
            assert plans[i] == want_plan, (i, y)
            assert losses[i] == pytest.approx(want_loss, rel=1e-12, abs=0.0), (i, y)
        assert report.voi[i] == pytest.approx(value, rel=1e-12, abs=0.0), i


def test_heuristic_is_priced_as_from_full_masses():
    # at the optimal plan, which here repairs something in most cases, so
    # that flips drop repairs as well as add them; a flip's failed half is a
    # difference of plan risks, so it agrees to rounding, not to the bit
    rng = np.random.default_rng(67)
    cases = repairs = 0
    for n in range(2, 9):
        for certain in (False, True):
            net = random_network(rng, n)
            c_fail = float(rng.uniform(0.5, 2.0))
            costs = LocalCostModel(c_fail, rng.uniform(0.0, 0.3 * c_fail, size=n))
            for dist in beliefs_of_every_kind(rng, n, certain=certain):
                # the reference's full masses price every plan as plan_expected_loss does
                pmf, fail = dist.pmf_vector(), ~net.truth_table()
                for plan in range(1 << n):
                    mass = pmf * fail[np.arange(fail.size) | plan]
                    assert plan_expected_loss(net, dist, plan, costs) == (
                        costs.c_fail * float(mass.sum()) + repair_cost(plan, costs))
                for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
                    report = voi_heuristic(net, dist, insp, costs)
                    assert (report.prior_plan, report.prior_loss) == optimal_plan(net, dist, costs)
                    assert_heuristic_is_priced_from_full_masses(report, net, dist, insp, costs)
                    cases += 1
                    repairs += report.prior_plan != 0
    # repair costs of at most 0.3 c_fail: the prior plan repairs in 70 of 84 cases
    assert repairs >= 0.75 * cases


def test_heuristic_flips_whose_difference_cancels_sum_their_own_failed_half(monkeypatch):
    # with q = 1e-6, 0 and 1e-9 on components 3, 5 and 11 of layered16,
    # R - R_i1 keeps few digits of their failed half at a plan that leaves
    # them alone, so none of them reads off R: independent or as one explicit
    # table, the prior plan P folds once, and each flip F = P ^ i of theirs,
    # whose R[F] - R_i1[P] cancels, sums its failed half from the failure
    # mass at F. 5's flip is priced only where an outcome on it is: a perfect
    # inspection of it has none. A free repair of 3 makes P repair it, so
    # that 3's flip drops a repair. In the drop-heavy series, P repairs the
    # seven rarely failing components for free, and every flip of theirs
    # drops a repair whose difference cancels; the eighth reads off R
    folds, sums = [], []
    split_masses, failure_masses = local_metrics._split_masses, local_metrics._failure_masses
    monkeypatch.setattr(local_metrics, "_split_masses", lambda net, dist, plan=0:
                        folds.append(plan) or split_masses(net, dist, plan))
    monkeypatch.setattr(local_metrics, "_failure_masses", lambda net, dist, plan=0:
                        sums.append(plan) or failure_masses(net, dist, plan))
    doc = parse_scenario_file(scenario_path("layered16.json"))
    probs = [0.01] * 16
    probs[3], probs[5], probs[11] = 1e-6, 0.0, 1e-9
    net, costs, independent = doc.build_network(), doc.build_costs(), Independent(probs)
    free = LocalCostModel(costs.c_fail, (0.0 if i == 3 else c for i, c in enumerate(costs.c_repair)))
    noisy = InspectionModel(0.05, 0.1)
    cases = [(net, c, dist, insp, summed, repairs)
             for c, repairs in ((costs, 0), (free, 1 << 3))
             for dist in (independent, Explicit(independent.pmf_vector()))
             for insp, summed in ((PERFECT_INSPECTION, (3, 11)), (noisy, (3, 5, 11)))]
    series_net = Network(FormulaTree(series(*range(8))))
    drop_heavy = LocalCostModel(1.0, (0.0,) * 7 + (10.0,))
    cases += [(series_net, drop_heavy, Independent([1e-4] * 7 + [0.5]), insp, range(7), 0x7F)
              for insp in (PERFECT_INSPECTION, noisy)]
    for net, c, dist, insp, summed, repairs in cases:
        folds.clear()
        sums.clear()
        report = voi_heuristic(net, dist, insp, c)
        plan = report.prior_plan
        assert plan & sum(1 << i for i in summed) == repairs
        assert (folds, sums) == ([plan], [plan ^ 1 << i for i in summed])
        assert_heuristic_is_priced_from_full_masses(report, net, dist, insp, c)


@pytest.mark.parametrize("name, tiny, prior, folded", [
    ("layered16", None, (), False), ("crossed_pair", None, ("u4",), False),
    ("three_branch", None, ("c2",), False), ("three_branch_alt_costs", None, ("c4",), False),
    ("substation", None, ("DS1",), True), ("layered16", 3, (), True)])
def test_heuristic_folds_only_for_members_of_larger_blocks(monkeypatch, name, tiny, prior,
                                                           folded):
    # where every component reads off R, voi_heuristic reads every half off
    # R: it forms no pmf, no failure mass and no fold. The substation's
    # groups fold once, at P, and TB, a group of one, is read off R all the
    # same. So does layered16 with q = 1e-6 on component 3, too rare a
    # failure to read off R, while its other components read off; 3's flip,
    # whose difference cancels, then sums the failure mass at the flip. Each
    # component read off takes its halves at P and its flip from the local
    # metric's routine, so they are the floats the local bound reads where
    # both read one R. The heuristic after the local metric, as plot runs
    # it, folds nothing
    doc = parse_scenario_file(scenario_path(f"{name}.json"))
    net, dist, insp, costs = (doc.build_network(), doc.build_distribution(),
                              doc.build_inspection(), doc.build_costs())
    if tiny is not None:
        dist = Independent([1e-6 if i == tiny else p for i, p in enumerate(dist.failure_probs)])
    calls, reads = [], []
    for owner, attr in ((local_metrics, "_split_masses"), (local_metrics, "_failure_masses"),
                        (inference, "_failure_masses"), (JointDistribution, "pmf_vector")):
        monkeypatch.setattr(owner, attr, lambda *args, f=getattr(owner, attr), attr=attr:
                            calls.append((attr, *args[2:])) or f(*args))
    read_at = local_metrics._read_at

    def recorded_read_at(prior, i, share, plans, out=None):
        halves = read_at(prior, i, share, plans, out)
        if isinstance(plans, int):
            reads.append(((i, plans), halves))
        return halves

    monkeypatch.setattr(local_metrics, "_read_at", recorded_read_at)
    alone = voi_heuristic(net, dist, insp, costs)
    (alone_calls, calls[:]), (alone_reads, reads[:]) = (calls[:], []), (reads[:], [])
    local, flips = local_metrics._voi_local(net, dist, insp, costs)
    local_reads = dict(reads)
    plotted = local_metrics._heuristic(local.prior_plan, local.prior_loss, flips, costs.c_fail)
    monkeypatch.undo()
    plan = plan_of(prior, net.names)
    fold = [("_split_masses", plan), ("_failure_masses", plan), ("pmf_vector",)]
    if tiny is not None:
        fold += [("_failure_masses", plan ^ 1 << tiny), ("pmf_vector",)]
    assert alone_calls == (fold if folded else []) and calls == []
    rule = [members[0] for members, table in dist.blocks()
            if len(members) == 1 and table[0] >= 2.0 ** -10 * table.sum()]
    assert rule and len(local_reads) == 2 * len(rule)
    assert {i for i, _ in local_reads} == set(rule) and tiny not in rule
    assert [at for at, _ in alone_reads] == [(i, a) for i in rule for a in (plan, plan ^ 1 << i)]
    for at, halves in alone_reads:  # the same R unless the local metric swept a component for it
        assert halves == (pytest.approx(local_reads[at], rel=1e-12, abs=0.0) if folded
                          else local_reads[at]), at
    for report in (alone, plotted):
        assert report.prior_plan == plan
        assert_heuristic_is_priced_from_full_masses(report, net, dist, insp, costs)


def test_heuristic_keeping_the_empty_plan_reads_the_intervals():
    # at the empty plan the heuristic's kept mass is the failure mass whose
    # halves the intervals fold, so its posterior losses are c_fail times
    # theirs: to the bit for members of larger blocks, which fold it too, and
    # to rounding for singletons, whose halves are read off the plan risks
    rng = np.random.default_rng(83)
    kept = 0
    for n in range(8, 13):
        net = random_network(rng, n)
        for dist in beliefs_of_every_kind(rng, n):
            c_fail = float(rng.uniform(0.5, 2.0))
            # every repair costs more than the loss of doing nothing
            prior = system_failure_prob(net, dist)
            costs = LocalCostModel(c_fail, c_fail * prior * rng.uniform(1.01, 3.0, size=n))
            singles = {members[0] for members, _ in dist.blocks() if len(members) == 1}
            for insp in (PERFECT_INSPECTION, InspectionModel(0.05, 0.1)):
                report = voi_heuristic(net, dist, insp, costs)
                assert report.prior_plan == 0
                table = report.action_table
                for i, iv in enumerate(_intervals(net, dist, insp)[1]):
                    if iv is None:
                        continue
                    assert table.silence_plans[i] == 0
                    pairs = [(table.silence_losses[i], c_fail * iv.lo)]
                    if table.alarm_plans[i] == 0:
                        pairs.append((table.alarm_losses[i], c_fail * iv.hi))
                        kept += 1
                    for got, want in pairs:
                        assert got == (pytest.approx(want, rel=1e-12, abs=0.0) if i in singles
                                       else want), (n, i)
    assert kept >= 50


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


def test_degenerate_inspection_is_worth_zero(monkeypatch):
    # an outcome of probability zero takes the other outcome's row: both rows
    # are the prior plan at the prior loss, and the inspection is worth 0.
    # voi_local asks that component's split for no plan, and its report is
    # the full scan's
    asked = []
    splits = local_metrics._splits

    def recorded(fail, steps, blocks):
        provided = splits(fail, steps, blocks)
        yield next(provided)
        for i, split, masses in provided:
            yield i, lambda plans, i=i, split=split: asked.append(i) or split(plans), masses

    net = Network(FormulaTree(series(0, 1)))
    costs = LocalCostModel.uniform(2, 1.0, 0.1)
    for p in (0.0, 1.0):
        for dist in (Independent([p, 0.4]), Explicit(Independent([p, 0.4]).pmf_vector())):
            prior_plan, prior_loss = optimal_plan(net, dist, costs)
            asked.clear()
            with monkeypatch.context() as m:
                m.setattr(local_metrics, "_splits", recorded)
                local = voi_local(net, dist, PERFECT_INSPECTION, costs)
            assert set(asked) == {1}
            assert local == local_by_full_scan(net, dist, PERFECT_INSPECTION, costs)
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
