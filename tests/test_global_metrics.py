"""System-level ranking, importance measures, and pure-shape rules."""

import math

import numpy as np
import pytest

from netvoi import (PERFECT_INSPECTION, BinaryActionLoss, DegenerateObservationError,
                    Explicit, FormulaTree, Independent, InspectionModel, Network,
                    QuadraticLoss, closed_form_rule, importance_measures, parallel,
                    parse_scenario_file, posterior_interval, rank_global, series,
                    system_failure_prob, voi_global)
from netvoi import inference

from conftest import (SCENARIO_DIR, make_crossed_pair, make_three_branch, random_distribution,
                      random_network, THREE_BRANCH_PROBS)


def bilinear_mix(interval, peak):
    """Direct arithmetic for the two-action envelope, c_fail = 1."""
    def val(p):
        return min(p, peak)
    post = interval.alarm_prob * val(interval.hi) \
        + (1 - interval.alarm_prob) * val(interval.lo)
    return val(interval.prior) - post


def test_crossed_pair_value_ratios_at_prior_peak():
    net, dist = make_crossed_pair()
    prior = system_failure_prob(net, dist)
    env = BinaryActionLoss(c_repair=prior, c_fail=1.0)
    regret_prior = env.regret(prior)
    _, voi_1, _ = voi_global(net, dist, 0, PERFECT_INSPECTION, env)
    _, voi_2, _ = voi_global(net, dist, 1, PERFECT_INSPECTION, env)
    # cross-check against direct min() arithmetic
    i1 = posterior_interval(net, dist, 0, PERFECT_INSPECTION)
    i2 = posterior_interval(net, dist, 1, PERFECT_INSPECTION)
    assert voi_1 == pytest.approx(bilinear_mix(i1, prior), abs=1e-12)
    assert voi_2 == pytest.approx(bilinear_mix(i2, prior), abs=1e-12)
    assert voi_2 / regret_prior == pytest.approx(0.42, abs=0.03)
    assert voi_1 / regret_prior == pytest.approx(0.17, abs=0.03)


def test_value_vanishes_when_peak_outside_interval():
    net, dist = make_crossed_pair()
    i2 = posterior_interval(net, dist, 1, PERFECT_INSPECTION)
    for peak in (i2.lo * 0.5, i2.hi * 1.5):
        env = BinaryActionLoss(c_repair=peak, c_fail=1.0)
        _, voi, _ = voi_global(net, dist, 1, PERFECT_INSPECTION, env)
        assert abs(voi) <= 1e-12


def test_rank_global_pure_shapes():
    dist = Independent([0.2, 0.1, 0.3])
    env = QuadraticLoss()
    par = Network(FormulaTree(parallel(0, 1, 2)))
    assert rank_global(par, dist, PERFECT_INSPECTION, env).best == 1  # most reliable
    srs = Network(FormulaTree(series(0, 1, 2)))
    assert rank_global(srs, dist, PERFECT_INSPECTION, env).best == 2  # most vulnerable


def test_rank_global_three_branch_quadratic():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    report = rank_global(net, dist, PERFECT_INSPECTION, QuadraticLoss())
    assert report.best == 1
    assert report.voi_normalized[1] == 1.0
    assert all(v >= -1e-10 for v in report.voi)


def test_report_identities():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        dist = random_distribution(rng, n)
        insp = InspectionModel(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
        env = QuadraticLoss()
        report = rank_global(net, dist, insp, env)
        prior = system_failure_prob(net, dist)
        perfect_loss = prior * env.value(1.0) + (1 - prior) * env.value(0.0)
        for i in range(n):
            assert report.voi[i] == pytest.approx(
                report.prior_loss - report.posterior_loss[i], abs=1e-10)
            assert report.posterior_regret[i] == pytest.approx(
                report.prior_loss - perfect_loss - report.voi[i], abs=1e-10)
        # the best component also minimizes the posterior regret
        by_regret = min(range(n), key=lambda i: (report.posterior_regret[i], i))
        assert report.posterior_regret[by_regret] == pytest.approx(
            report.posterior_regret[report.best], abs=1e-12)
        # information is worth at most perfect knowledge of the system state
        assert all(v <= report.prior_regret + 1e-10 for v in report.voi)


def test_importance_three_branch():
    net = make_three_branch()
    dist = Independent(THREE_BRANCH_PROBS)
    report = importance_measures(net, dist, PERFECT_INSPECTION)
    expected_bm = (0.2592, 0.3888, 0.1656, 0.26496, 0.1104, 0.1932)
    assert report.bm == pytest.approx(expected_bm, abs=1e-12)
    assert report.rankings["bm"][0] == 1
    p_sys = system_failure_prob(net, dist)
    for i in range(6):
        assert report.crt[i] == pytest.approx(
            report.bm[i] * THREE_BRANCH_PROBS[i] / p_sys, abs=1e-12)


def test_importance_raw_rrw_textbook():
    # RAW = P(down | i down) / P(down), RRW = P(down) / P(down | i up)
    dist = Independent([0.1, 0.3])
    srs = importance_measures(Network(FormulaTree(series(0, 1))), dist,
                              PERFECT_INSPECTION)
    prior = 1.0 - 0.9 * 0.7  # 0.37
    assert srs.raw == pytest.approx((1.0 / prior, 1.0 / prior), rel=1e-12)
    assert srs.rrw == pytest.approx((prior / 0.3, prior / 0.1), rel=1e-12)
    assert srs.rrw_is_infinite == (False, False)
    assert srs.rankings["rrw"] == (1, 0)
    # in parallel, a working component alone keeps the system up
    par = importance_measures(Network(FormulaTree(parallel(0, 1))), dist,
                              PERFECT_INSPECTION)
    assert par.raw == pytest.approx((0.3 / 0.03, 0.1 / 0.03), rel=1e-12)
    assert par.rrw_is_infinite == (True, True)
    assert all(math.isinf(v) for v in par.rrw)


def test_importance_single_component():
    net = Network(FormulaTree(series(0)))
    report = importance_measures(net, Independent([0.3]), PERFECT_INSPECTION)
    assert report.bm[0] == pytest.approx(1.0)
    assert report.crt[0] == pytest.approx(1.0)


def test_closed_form_rule():
    dist = Independent([0.2, 0.1, 0.3])
    par = Network(FormulaTree(parallel(0, 1, 2)))
    srs = Network(FormulaTree(series(0, 1, 2)))
    mixed = Network(FormulaTree(series(0, parallel(1, 2))))
    assert closed_form_rule(par, dist) == 1
    assert closed_form_rule(srs, dist) == 2
    assert closed_form_rule(mixed, dist) is None
    nonuniform = InspectionModel([0.0, 0.1, 0.0], 0.0)
    assert closed_form_rule(par, dist, nonuniform) is None
    # uniform accuracy given once per component is still uniform
    scalar, listed = InspectionModel(0.1, 0.05), InspectionModel([0.1] * 3, [0.05] * 3)
    assert listed.uniform
    for net in (par, srs):
        rule = closed_form_rule(net, dist, scalar)
        assert rule is not None and closed_form_rule(net, dist, listed) == rule


def test_rank_handles_deterministic_component():
    # a certain outcome carries no information and must not crash the ranking
    net = Network(FormulaTree(parallel(0, 1)))
    dist = Independent([1.0, 0.4])
    report = rank_global(net, dist, PERFECT_INSPECTION, QuadraticLoss())
    assert report.voi[0] == 0.0
    assert report.voi[1] > 0.0
    assert report.best == 1


def test_each_alarm_probability_is_computed_once(monkeypatch, three_branch):
    net, dist = three_branch
    calls = []
    computed = inference._alarm_probability
    monkeypatch.setattr(inference, "_alarm_probability",
                        lambda d, i, insp: calls.append(i) or computed(d, i, insp))
    rank_global(net, dist, PERFECT_INSPECTION, QuadraticLoss())
    importance_measures(net, dist, PERFECT_INSPECTION)
    assert calls == list(range(6)) * 2


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
                         + ["substation.json as explicit", "a series with a certain component"])
def test_library_and_cli_read_one_interval_per_component(name):
    # the library's one-component calls and the CLI's every-component report
    # take their halves from the same fold, so their floats agree exactly; a
    # certain inspection has no interval, and both price it at 0
    if name.startswith("a series"):
        net, dist = Network(FormulaTree(series(0, 1))), Independent([0.0, 0.3])
        insp, env = PERFECT_INSPECTION, QuadraticLoss()
    else:
        doc = parse_scenario_file(SCENARIO_DIR / name.split()[0])
        net, dist, insp = doc.build_network(), doc.build_distribution(), doc.build_inspection()
        env = doc.build_envelope()
    if name.endswith("explicit"):
        dist = Explicit(dist.pmf_vector())
    _, intervals = inference._intervals(net, dist, insp)
    report = rank_global(net, dist, insp, env)
    rows = list(zip(report.posterior_loss, report.voi, report.posterior_regret))
    for i, iv in enumerate(intervals):
        assert voi_global(net, dist, i, insp, env) == rows[i]
        if iv is None:
            assert rows[i] == (report.prior_loss, 0.0, report.prior_regret)
            with pytest.raises(DegenerateObservationError):
                posterior_interval(net, dist, i, insp)
            continue
        assert posterior_interval(net, dist, i, insp) == iv
    if name.startswith("a series"):
        assert intervals[0] is None
