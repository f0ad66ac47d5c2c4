"""Monte Carlo estimators and the brute-force reference."""

import numpy as np
import pytest

from netvoi import (Explicit, FormulaTree, Independent, LocalCostModel, Network,
                    SimulationConfig, SizeCapError, brute_force_plan_risks,
                    mc_system_failure, parallel, plan_losses, series,
                    system_failure_prob)

from conftest import (THREE_BRANCH_PROBS, make_crossed_pair,
                      make_groups_across_sampling_chunks, make_substation,
                      make_three_branch)


def test_single_component_estimate():
    net = Network(FormulaTree(series(0)))
    dist = Independent([0.3])
    est, se = mc_system_failure(net, dist, SimulationConfig(100_000, seed=1))
    assert abs(est - 0.3) <= 3 * se
    assert abs(est - 0.3) < 0.01


def test_crossed_pair_estimate():
    net, dist = make_crossed_pair()
    exact = system_failure_prob(net, dist)
    est, se = mc_system_failure(net, dist, SimulationConfig(200_000, seed=7))
    assert abs(est - exact) <= 3 * se


def test_three_branch_estimate_large_budget():
    net = make_three_branch()
    dist = Independent([0.1, 0.4, 0.2, 0.5, 0.3, 0.6])
    est, se = mc_system_failure(net, dist, SimulationConfig(1_000_000, seed=17))
    assert abs(est - 0.19872) <= 3 * se


def test_substation_estimate_with_groups():
    net, dist = make_substation(rho_ds=0.0)
    exact = system_failure_prob(net, dist)
    est, se = mc_system_failure(net, dist, SimulationConfig(400_000, seed=3))
    assert abs(est - exact) <= 3 * se


def test_belief_and_its_explicit_table_estimate_alike():
    # up to 12 components every belief draws by the inverse CDF of its pmf
    cfg = SimulationConfig(20_000, seed=5)
    for net, dist in (make_substation(rho_ds=0.4),
                      (make_three_branch(), Independent(THREE_BRANCH_PROBS))):
        explicit = Explicit(dist.pmf_vector())
        assert mc_system_failure(net, dist, cfg) == mc_system_failure(net, explicit, cfg)


@pytest.mark.parametrize("net, dist", [
    (Network(FormulaTree(parallel(*(series(*range(4 * b, 4 * b + 4)) for b in range(5))))),
     Independent(np.linspace(0.05, 0.3, 20))),
    (Network(FormulaTree(parallel(series(*range(0, 18, 2)), series(*range(1, 18, 2))))),
     make_groups_across_sampling_chunks()),
])
def test_estimate_over_several_sampling_chunks(net, dist):
    exact = system_failure_prob(net, dist)
    est, se = mc_system_failure(net, dist, SimulationConfig(200_000, seed=21))
    assert abs(est - exact) <= 3 * se


def test_fixed_seed_reproducibility():
    net = make_three_branch()
    dist = Independent([0.1, 0.4, 0.2, 0.5, 0.3, 0.6])
    cfg = SimulationConfig(50_000, seed=11)
    assert mc_system_failure(net, dist, cfg) == mc_system_failure(net, dist, cfg)
    other = SimulationConfig(50_000, seed=12)
    assert mc_system_failure(net, dist, cfg) != mc_system_failure(net, dist, other)


def test_error_shrinks_with_sample_size():
    net = Network(FormulaTree(series(0)))
    dist = Independent([0.3])

    def mean_abs_error(n):
        errors = [abs(mc_system_failure(net, dist,
                                        SimulationConfig(n, seed=s))[0] - 0.3)
                  for s in range(20)]
        return float(np.mean(errors))

    errors = [mean_abs_error(n) for n in (1_000, 10_000, 100_000, 1_000_000)]
    assert errors[0] > errors[2]
    assert errors[1] > errors[3]


def test_brute_force_single_component():
    net = Network(FormulaTree(series(0)))
    dist = Independent([0.25])
    costs = LocalCostModel(1.0, (0.4,))
    losses = brute_force_plan_risks(net, dist, costs)
    assert losses[0] == pytest.approx(0.25)
    assert losses[1] == pytest.approx(0.4)


def test_brute_force_empty_plan_row():
    net = make_three_branch()
    dist = Independent([0.1, 0.4, 0.2, 0.5, 0.3, 0.6])
    costs = LocalCostModel.uniform(6, 1.0, 0.1)
    losses = brute_force_plan_risks(net, dist, costs)
    assert losses[0] == pytest.approx(system_failure_prob(net, dist), abs=1e-12)
    assert np.allclose(losses, plan_losses(net, dist, costs), atol=1e-12)


def test_brute_force_cap():
    net = Network(FormulaTree(series(*range(13))), cap=13)
    dist = Independent([0.1] * 13)
    with pytest.raises(SizeCapError):
        brute_force_plan_risks(net, dist, LocalCostModel.uniform(13, 1.0, 0.1))
