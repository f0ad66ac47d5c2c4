"""Loss envelopes: values, regret, and the lower-hull construction."""

import math

import numpy as np
import pytest

from netvoi import BinaryActionLoss, GlobalAction, PiecewiseLinearLoss, QuadraticLoss


def test_binary_action_values():
    env = BinaryActionLoss(c_repair=1.0, c_fail=5.0)
    assert env.value(0.0) == 0.0
    assert env.value(1.0) == 1.0
    assert env.peak == pytest.approx(0.2)
    assert env.value(0.1) == pytest.approx(0.5)
    assert env.value(0.9) == pytest.approx(1.0)


def test_binary_action_peak_must_be_interior():
    with pytest.raises(ValueError):
        BinaryActionLoss(c_repair=5.0, c_fail=5.0)
    with pytest.raises(ValueError):
        BinaryActionLoss(c_repair=0.0, c_fail=5.0)


def test_regret_endpoints_and_peak():
    env = BinaryActionLoss(c_repair=1.0, c_fail=5.0)
    assert env.regret(0.0) == 0.0
    assert env.regret(1.0) == 0.0
    # peak height is c_repair * (1 - peak)
    assert env.regret(env.peak) == pytest.approx(1.0 * (1 - 0.2))
    quad = QuadraticLoss()
    assert quad.regret(0.5) == pytest.approx(0.25)
    assert quad.value(0.5) == pytest.approx(0.25)


def test_hull_of_two_lines_equals_binary_action():
    c_repair, c_fail = 0.3, 1.0
    actions = [GlobalAction(cost=0.0, residual_risk=1.0),
               GlobalAction(cost=c_repair, residual_risk=0.0)]
    env = PiecewiseLinearLoss.from_actions(actions, c_fail)
    ref = BinaryActionLoss(c_repair, c_fail)
    for p in np.linspace(0.0, 1.0, 401):
        assert env.value(float(p)) == pytest.approx(ref.value(float(p)), abs=1e-15)


def test_hull_matches_brute_force_minimum():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 257)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        actions = [GlobalAction(cost=float(rng.uniform(0, 2)),
                                residual_risk=float(rng.uniform(0, 1)))
                   for _ in range(k)]
        c_fail = float(rng.uniform(0.5, 3.0))
        env = PiecewiseLinearLoss.from_actions(actions, c_fail)
        for p in grid:
            brute = min(a.cost + a.residual_risk * c_fail * p for a in actions)
            assert env.value(float(p)) == pytest.approx(brute, abs=1e-12)


def test_envelopes_are_concave():
    rng = np.random.default_rng(9)
    envs = [QuadraticLoss(), BinaryActionLoss(0.4, 1.0)]
    actions = [GlobalAction(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
               for _ in range(5)]
    envs.append(PiecewiseLinearLoss.from_actions(actions, 2.0))
    for env in envs:
        for _ in range(500):
            a, b = rng.uniform(0, 1, size=2)
            lam = float(rng.uniform(0, 1))
            mid = lam * a + (1 - lam) * b
            chord = lam * env.value(float(a)) + (1 - lam) * env.value(float(b))
            assert env.value(float(mid)) >= chord - 1e-12


def test_out_of_range_probability_rejected():
    for env in (QuadraticLoss(), BinaryActionLoss(0.4, 1.0)):
        with pytest.raises(ValueError):
            env.value(1.5)
        with pytest.raises(ValueError):
            env.value(-0.1)


def test_global_action_validation():
    with pytest.raises(ValueError):
        GlobalAction(cost=-1.0, residual_risk=0.5)
    with pytest.raises(ValueError):
        GlobalAction(cost=1.0, residual_risk=1.5)
    for cost, risk in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan)):
        with pytest.raises(ValueError):
            GlobalAction(cost=cost, residual_risk=risk)
    for c_fail in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PiecewiseLinearLoss.from_actions([GlobalAction(0.2, 0.5)], c_fail)
    for line in ((math.nan, 0.0), (0.5, math.inf)):
        with pytest.raises(ValueError):
            PiecewiseLinearLoss([(0.5, 0.1), line])


def test_single_action_envelope_has_zero_regret():
    env = PiecewiseLinearLoss.from_actions([GlobalAction(0.2, 0.5)], 1.0)
    for p in (0.0, 0.3, 1.0):
        assert env.regret(p) == pytest.approx(0.0, abs=1e-15)
