"""Tests of the benchmark's references on hand-computable cases.

Run with ``python -m pytest bench``.
"""

import numpy as np
import pytest

from reference import (ProductMixture, ScenarioReference, WeightVector, alarm_prob,
                       enumerate_plan_risks, likelihoods, product_plan_risks,
                       structure_table, table_from_formula, table_from_graph,
                       table_from_string)

P1, P2 = 0.1, 0.3
SERIES = [False, False, False, True]      # works only in mask 0b11
PARALLEL = [False, True, True, True]      # fails only in mask 0b00


def test_structures_series_and_parallel():
    ids = ["a", "b"]
    assert list(table_from_formula("series(a, b)", ids)) == SERIES
    assert list(table_from_formula("parallel(a, b)", ids)) == PARALLEL
    assert list(table_from_graph([["o", "a"], ["a", "b"], ["b", "s"]], "o", "s", ids,
                                 False)) == SERIES
    assert list(table_from_graph([["o", "a"], ["a", "s"], ["o", "b"], ["b", "s"]],
                                 "o", "s", ids, False)) == PARALLEL
    assert list(table_from_string("0111")) == PARALLEL


def test_graph_junctions_conduct_and_direction_matters():
    ids = ["a", "b"]
    edges = [["o", "j"], ["j", "a"], ["a", "s"], ["j", "b"], ["b", "s"]]
    assert list(table_from_graph(edges, "o", "s", ids, True)) == PARALLEL
    # Directed edges pointing away from the sink carry nothing.
    assert not table_from_graph([["s", "a"], ["a", "o"]], "o", "s", ["a"], True).any()


def test_nested_formula():
    ids = ["a", "b", "c"]
    table = table_from_formula("series(a, parallel(b, c))", ids)
    masks = np.arange(8)
    assert list(table) == [bool(m & 1) and bool(m & 6) for m in masks]


def test_product_failure_probabilities():
    pmf = ProductMixture.independent([P1, P2]).pmf()
    fail_series = 1 - np.array(SERIES, dtype=float)
    fail_parallel = 1 - np.array(PARALLEL, dtype=float)
    assert pmf @ fail_series == pytest.approx(1 - (1 - P1) * (1 - P2), abs=1e-15)
    assert pmf @ fail_parallel == pytest.approx(P1 * P2, abs=1e-15)


@pytest.mark.parametrize("table, expected", [
    # Plan mask bit i repairs component i.
    (SERIES, [1 - (1 - P1) * (1 - P2), P2, P1, 0.0]),
    (PARALLEL, [P1 * P2, 0.0, 0.0, 0.0]),
])
def test_plan_risks_by_transform_and_by_enumeration(table, expected):
    fail = 1 - np.array(table, dtype=float)
    by_bits = product_plan_risks([P1, P2], fail)
    by_states = enumerate_plan_risks(ProductMixture.independent([P1, P2]).pmf(), fail)[0]
    np.testing.assert_allclose(by_bits, expected, atol=1e-15)
    np.testing.assert_allclose(by_states, expected, atol=1e-15)


def test_one_factor_group_pair():
    p, rho = 0.2, 0.4
    belief = ProductMixture.one_factor_groups(2, [([0, 1], p, rho)])
    pmf = belief.pmf()
    both = p * p + rho * p * (1 - p)       # correlation rho at marginal p
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    assert pmf[0] == pytest.approx(both, abs=1e-15)
    assert belief.marginal_failure(0) == pytest.approx(p, abs=1e-15)
    assert belief.marginal_failure(1) == pytest.approx(p, abs=1e-15)
    fail = 1 - np.array(PARALLEL, dtype=float)
    # Repairing nothing leaves the parallel pair down when both are down.
    assert belief.plan_risks(fail)[0] == pytest.approx(both, abs=1e-15)
    np.testing.assert_allclose(belief.plan_risks(fail),
                               enumerate_plan_risks(pmf, fail)[0], atol=1e-15)


def test_uncorrelated_groups_are_one_product():
    belief = ProductMixture.one_factor_groups(3, [([0, 2], 0.1, 0.0), ([1], 0.3, 0.0)])
    assert len(belief.terms) == 1
    np.testing.assert_allclose(belief.pmf(), ProductMixture.independent([0.1, 0.3, 0.1]).pmf(),
                               atol=1e-16)


def test_bayes_posterior_after_imperfect_alarm():
    fa, fs = 0.05, 0.1
    belief = ProductMixture.independent([P1, P2])
    post = belief.posterior(0, *likelihoods(fa, fs, alarm=True))
    want = (1 - fs) * P1 / ((1 - fs) * P1 + fa * (1 - P1))
    assert post.marginal_failure(0) == pytest.approx(want, abs=1e-15)
    assert post.marginal_failure(1) == pytest.approx(P2, abs=1e-15)
    h = alarm_prob(belief, 0, fa, fs)
    silence = belief.posterior(0, *likelihoods(fa, fs, alarm=False))
    # The two posteriors mix back to the prior.
    assert h * post.marginal_failure(0) + (1 - h) * silence.marginal_failure(0) == \
        pytest.approx(P1, abs=1e-15)


def test_weight_vector_posterior_matches_mixture():
    belief = ProductMixture.one_factor_groups(3, [([0, 1, 2], 0.15, 0.5)])
    weights = WeightVector(belief.pmf())
    for alarm in (False, True):
        a = belief.posterior(1, *likelihoods(0.02, 0.07, alarm))
        b = weights.posterior(1, *likelihoods(0.02, 0.07, alarm))
        np.testing.assert_allclose(a.pmf(), b.pmf(), atol=1e-15)


def test_scenario_reference_on_perfect_series_inspection():
    doc = {"components": [{"id": "a", "failure_probability": P1},
                          {"id": "b", "failure_probability": P2}],
           "structure": {"formula": "series(a, b)"},
           "dependence": {"kind": "independent"},
           "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
           "costs": {"c_fail": 1.0, "c_repair": 0.05}, "envelope": "quadratic"}
    ref = ScenarioReference(doc)
    assert list(structure_table(doc)) == SERIES
    assert ref.prior == pytest.approx(1 - (1 - P1) * (1 - P2), abs=1e-15)
    # An alarm on a series component means the system is down.
    assert ref.hi[0] == pytest.approx(1.0, abs=1e-15)
    assert ref.lo[0] == pytest.approx(P2, abs=1e-15)
    # After an alarm on a, repairing a alone leaves b's risk plus one repair.
    assert ref.losses((0, True))[0b01] == pytest.approx(P2 + 0.05, abs=1e-15)
    assert ref.importance(0)["bm"] == pytest.approx(1 - P2, abs=1e-15)
    prior_loss, _, rows = ref.global_rows()
    q = ref.prior
    assert prior_loss == pytest.approx(q * (1 - q), abs=1e-15)
    h = P1
    want = prior_loss - (h * 0.0 + (1 - h) * P2 * (1 - P2))
    assert rows["a"]["voi"] == pytest.approx(want, abs=1e-15)
    assert ref.plan_mask("a+b") == 3
