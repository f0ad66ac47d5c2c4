"""Monte Carlo estimators and the brute-force reference of the tests."""

import tracemalloc

import numpy as np
import pytest

from netvoi import (Explicit, FormulaTree, Independent, LocalCostModel, Network,
                    SimulationConfig, mc_system_failure, parallel, plan_losses, series,
                    system_failure_prob)
from netvoi.oracle import N_BATCHES, PIECE, _substream
from netvoi.scenario import parse_scenario_file

from conftest import (THREE_BRANCH_PROBS, brute_force_plan_risks, make_crossed_pair,
                      make_groups_across_sampling_chunks, make_substation,
                      make_three_branch, scenario_path, whole_batch_mc)


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
    # up to 16 components every belief draws by the inverse CDF of its pmf
    cfg = SimulationConfig(20_000, seed=5)
    for net, dist in (make_substation(rho_ds=0.4),
                      (make_three_branch(), Independent(THREE_BRANCH_PROBS))):
        explicit = Explicit(dist.pmf_vector())
        assert mc_system_failure(net, dist, cfg) == mc_system_failure(net, explicit, cfg)


@pytest.mark.parametrize("net, dist", [
    (Network(FormulaTree(parallel(*(series(*range(4 * b, 4 * b + 4)) for b in range(5))))),
     Independent(np.linspace(0.05, 0.3, 20))),
    (Network(FormulaTree(parallel(series(*range(0, 20, 2)), series(*range(1, 20, 2))))),
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


def _scenario(name, explicit=False):
    doc = parse_scenario_file(scenario_path(f"{name}.json"))
    dist = doc.build_distribution()
    return doc.build_network(), Explicit(dist.pmf_vector()) if explicit else dist


@pytest.mark.parametrize("name, explicit, expected", [
    ("layered16", False, (0.00059, 2.9584215494949552e-05)),
    ("substation", False, (0.004352, 5.781393960718492e-05)),
    ("substation", True, (0.004352, 5.781393960718492e-05)),
    ("three_branch", False, (0.199087, 0.000284900831643166)),
])
def test_full_size_estimates_are_pinned(name, explicit, expected):
    # a million draws at seed 7, as the binary-search sampler gave them in
    # chunks of up to 16 components; each pin lies within 3 SE of the exact value
    net, dist = _scenario(name, explicit)
    assert mc_system_failure(net, dist, SimulationConfig(1_000_000, seed=7)) == expected
    est, se = expected
    assert abs(est - system_failure_prob(net, dist)) <= 3 * se


def _groups_over_chunks():
    return (Network(FormulaTree(parallel(series(*range(0, 20, 2)), series(*range(1, 20, 2))))),
            make_groups_across_sampling_chunks())


def _independent_over_chunks():
    return (Network(FormulaTree(parallel(*(series(*range(4 * b, 4 * b + 4)) for b in range(5))))),
            Independent(np.linspace(0.05, 0.3, 20)))


@pytest.mark.parametrize("belief", [lambda: _scenario("substation"), _groups_over_chunks,
                                    _independent_over_chunks],
                         ids=["substation", "groups-over-chunks", "independent-over-chunks"])
def test_pieces_change_no_estimate(belief):
    # batches below one piece, at a piece and one draw past it, and across many pieces
    net, dist = belief()
    for n in (2, 33, 20_000, N_BATCHES * PIECE + 1, 1_000_003):
        cfg = SimulationConfig(n, seed=9)
        assert mc_system_failure(net, dist, cfg) == whole_batch_mc(net, dist, cfg), n


@pytest.mark.parametrize("dist, chunks", [(make_substation()[1], 1),
                                          (make_groups_across_sampling_chunks(), 2)],
                         ids=["one-chunk", "two-chunks"])
def test_sample_in_pieces_is_one_sample(dist, chunks):
    stream = _substream(4, 5)
    pieces = np.concatenate([dist.sample(stream, m) for m in (1, 7, 8192) * 3])
    assert np.array_equal(pieces, dist.sample(_substream(4, 5), pieces.size))
    # (cdf, guide, state masks) per chunk: two chunks on bits other than 0..k-1 need masks
    assert len(dist._chunks) == chunks
    assert chunks == 1 or all(masks is not None for _, _, masks in dist._chunks)


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_memory_is_one_piece():
    net, dist = _scenario("substation")
    mc_system_failure(net, dist, SimulationConfig(2))  # the truth table and search tables
    failed = ~net.truth_table()
    piece = _peak_bytes(lambda: np.count_nonzero(failed[dist.sample(_substream(0, 0), PIECE)]))
    small, large = (_peak_bytes(lambda: mc_system_failure(net, dist, SimulationConfig(n)))
                    for n in (100_000, 10_000_000))
    assert large < 1 << 20
    assert large - small <= piece


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 3, 2**63, 2**64 - 1, 2**128 - 1])
def test_substream_is_the_jumped_generator(seed):
    for j in range(N_BATCHES):
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(j))
        stream = _substream(seed, j)
        assert _same_state(stream.bit_generator.state, jumped.bit_generator.state), j
        # the first 1000 random((777, 2)) draws, in one call
        assert np.array_equal(stream.random((1000, 777, 2)), jumped.random((1000, 777, 2))), j


@pytest.mark.parametrize("n_samples, seed, message", [
    (100.0, 0, "n_samples must be an integer, not 100.0"),
    (100, 1.5, "seed must be an integer, not 1.5"),
    ("100", 0, "n_samples must be an integer, not '100'"),
])
def test_simulation_settings_must_be_integers(n_samples, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimulationConfig(n_samples, seed=seed)
    assert SimulationConfig(np.int64(100), seed=np.uint64(3)).n_samples == 100


@pytest.mark.parametrize("n_samples, seed, message", [
    (True, 0, "n_samples must be an integer, not True"),
    (100, True, "seed must be an integer, not True"),
    (100, False, "seed must be an integer, not False"),
])
def test_simulation_settings_refuse_bools(n_samples, seed, message):
    # bool is an Integral, but True is no sample count or Philox key
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimulationConfig(n_samples, seed=seed)


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
