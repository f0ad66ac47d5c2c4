"""Posterior updating from one inspection and the interval machinery."""

import numpy as np
import pytest

from netvoi import (ALARM, PERFECT_INSPECTION, SILENCE, ConditioningError,
                    DegenerateObservationError, Dominance, FormulaTree,
                    IncomparableIntervalsError, Independent, InspectionModel,
                    JointDistribution, Network, PosteriorInterval, alarm_probability,
                    interval_dominates, parallel, posterior_given_observation,
                    posterior_interval, posterior_system_failure, series,
                    system_failure_prob)
from netvoi.distributions import _failure_masses
from netvoi.inference import _intervals, _outcomes, _posterior_mean

from conftest import (crossed_pair_reference, make_crossed_pair, random_distribution,
                      random_network, strided_halves)


def test_alarm_probability_formula():
    assert alarm_probability(Independent([0.3]), 0, PERFECT_INSPECTION) == 0.3
    noisy = InspectionModel(0.01, 0.01)
    assert alarm_probability(Independent([0.1]), 0, noisy) == pytest.approx(0.108)
    assert alarm_probability(Independent([0.0]), 0, noisy) == pytest.approx(0.01)


def test_an_outcome_other_than_alarm_or_silence_is_refused():
    with pytest.raises(ValueError, match=r"^outcome must be 0 \(alarm\) or 1 \(silence\)$"):
        posterior_given_observation(Independent([0.3, 0.2]), 0, 2, PERFECT_INSPECTION)


def test_inspection_model_validation():
    with pytest.raises(ValueError):
        InspectionModel(0.5, 0.0)
    with pytest.raises(ValueError):
        InspectionModel(0.0, -0.1)
    per_component = InspectionModel([0.0, 0.1], 0.2)
    assert not per_component.uniform
    assert per_component.fa(1) == 0.1
    assert per_component.k(1) == pytest.approx(0.7)


def test_perfect_observation_equals_hard_conditioning():
    dist = Independent([0.1, 0.4])
    post = posterior_given_observation(dist, 0, ALARM, PERFECT_INSPECTION)
    ref = dist.condition({0: 0})
    assert np.allclose(post.pmf_vector(), ref.pmf_vector())


def test_noisy_alarm_bayes_arithmetic():
    noisy = InspectionModel(0.01, 0.01)
    post = posterior_given_observation(Independent([0.1]), 0, ALARM, noisy)
    assert post.marginal_failure(0) == pytest.approx(0.099 / 0.108, abs=1e-12)


def test_posterior_past_the_pmf_size_is_a_block_belief():
    # 2^64 masks admit no pmf vector: the alarm reweights one two-entry table
    dist = Independent([0.1] * 64)
    post = posterior_given_observation(dist, 3, ALARM, InspectionModel(0.05, 0.1))
    assert isinstance(post, JointDistribution) and post.n_components == 64
    assert post.marginal_failure(3) == pytest.approx(0.1 * 0.9 / (0.1 * 0.9 + 0.9 * 0.05),
                                                     abs=1e-15)
    assert all(post.marginal_failure(j) == 0.1 for j in range(64) if j != 3)
    with pytest.raises(IndexError):
        posterior_given_observation(dist, 64, ALARM, PERFECT_INSPECTION)


def test_nearly_uninformative_observation_keeps_prior():
    nearly = InspectionModel(0.499999, 0.499999)
    post = posterior_given_observation(Independent([0.3]), 0, ALARM, nearly)
    assert post.marginal_failure(0) == pytest.approx(0.3, abs=1e-4)


def test_posterior_system_failure_pure_shapes():
    srs = Network(FormulaTree(series(0, 1)))
    dist = Independent([0.2, 0.3])
    assert posterior_system_failure(srs, dist, 0, ALARM, PERFECT_INSPECTION) == 1.0
    par = Network(FormulaTree(parallel(0, 1)))
    assert posterior_system_failure(par, dist, 0, SILENCE, PERFECT_INSPECTION) == 0.0


def test_crossed_pair_intervals():
    net, dist = make_crossed_pair()
    pmf, works = crossed_pair_reference()

    def reference_posterior(i, value):
        num = sum(pmf[m] for m in range(64)
                  if ((m >> i) & 1) == value and not works(m))
        den = sum(pmf[m] for m in range(64) if ((m >> i) & 1) == value)
        return num / den

    i1 = posterior_interval(net, dist, 0, PERFECT_INSPECTION)
    i2 = posterior_interval(net, dist, 1, PERFECT_INSPECTION)
    assert i1.lo == pytest.approx(reference_posterior(0, 1), abs=1e-12)
    assert i1.hi == pytest.approx(reference_posterior(0, 0), abs=1e-12)
    assert (i1.lo, i1.hi) == pytest.approx((0.0090, 0.200), abs=0.0005)
    assert (i2.lo, i2.hi) == pytest.approx((0.0052, 0.0338), abs=0.0005)
    assert interval_dominates(i1, i2) is Dominance.NOT_NESTED


def test_interval_mixture_identity_randomized():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        dist = random_distribution(rng, n)
        insp = InspectionModel(float(rng.uniform(0, 0.45)), float(rng.uniform(0, 0.45)))
        i = int(rng.integers(n))
        iv = posterior_interval(net, dist, i, insp)
        mixed = iv.alarm_prob * iv.hi + (1.0 - iv.alarm_prob) * iv.lo
        assert mixed == pytest.approx(iv.prior, abs=1e-10)


def test_interval_ordering_under_positive_association():
    # a silence can only reassure when components never hedge each other,
    # which holds for independence and for the shared-cause construction;
    # adversarial explicit joints with negative correlation can invert it
    rng = np.random.default_rng(20)
    from conftest import random_distribution as _rd

    for _ in range(100):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n)
        dist = _rd(rng, n)
        if type(dist).__name__ == "Explicit":
            continue
        insp = InspectionModel(float(rng.uniform(0, 0.45)), float(rng.uniform(0, 0.45)))
        i = int(rng.integers(n))
        iv = posterior_interval(net, dist, i, insp)
        assert iv.lo <= iv.prior + 1e-12
        assert iv.hi >= iv.prior - 1e-12


def test_parallel_interval_ordering_by_reliability():
    net = Network(FormulaTree(parallel(0, 1)))
    dist = Independent([0.2, 0.5])
    a = posterior_interval(net, dist, 0, PERFECT_INSPECTION)
    b = posterior_interval(net, dist, 1, PERFECT_INSPECTION)
    assert interval_dominates(a, b) is Dominance.FIRST


def test_identical_components_dominate_mutually():
    net = Network(FormulaTree(parallel(0, 1)))
    dist = Independent([0.3, 0.3])
    a = posterior_interval(net, dist, 0, PERFECT_INSPECTION)
    b = posterior_interval(net, dist, 1, PERFECT_INSPECTION)
    assert interval_dominates(a, b) is Dominance.MUTUAL


def test_the_second_interval_may_contain_the_first():
    net = Network(FormulaTree(parallel(0, 1)))
    dist = Independent([0.5, 0.2])
    a = posterior_interval(net, dist, 0, PERFECT_INSPECTION)
    b = posterior_interval(net, dist, 1, PERFECT_INSPECTION)
    assert interval_dominates(a, b) is Dominance.SECOND


def test_interval_comparison_requires_matching_priors():
    a = PosteriorInterval(lo=0.1, hi=0.3, prior=0.2, alarm_prob=0.5)
    b = PosteriorInterval(lo=0.1, hi=0.3, prior=0.25, alarm_prob=0.5)
    with pytest.raises(IncomparableIntervalsError):
        interval_dominates(a, b)


def test_degenerate_observation_raises():
    net = Network(FormulaTree(parallel(0, 1)))
    dist = Independent([0.0, 0.4])
    with pytest.raises(DegenerateObservationError):
        posterior_interval(net, dist, 0, PERFECT_INSPECTION)


def test_posterior_system_failure_refuses_an_outcome_of_probability_zero():
    # component 0 never fails, so a perfect inspection of it never alarms
    net = Network(FormulaTree(series(0, 1)))
    with pytest.raises(ConditioningError, match="^observation has probability zero$"):
        posterior_system_failure(net, Independent([0.0, 0.5]), 0, ALARM, PERFECT_INSPECTION)


@pytest.mark.parametrize("i", [2, -1])
def test_posteriors_of_a_component_out_of_range_raise_index_error(i):
    net, dist = Network(FormulaTree(series(0, 1))), Independent([0.1, 0.2])
    with pytest.raises(IndexError, match=f"^component index {i} out of range$"):
        posterior_system_failure(net, dist, i, ALARM, PERFECT_INSPECTION)
    with pytest.raises(IndexError, match=f"^component index {i} out of range$"):
        posterior_interval(net, dist, i, PERFECT_INSPECTION)


def test_posterior_distributions_renormalize():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, n)
        insp = InspectionModel(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
        post = posterior_given_observation(dist, int(rng.integers(n)),
                                           int(rng.integers(2)), insp)
        assert abs(float(post.pmf_vector().sum()) - 1.0) < 1e-12


def test_series_and_parallel_closed_forms():
    # pure-shape posteriors admit closed forms driven only by the prior,
    # the component marginal, and the error rates
    rng = np.random.default_rng(23)
    insp = InspectionModel(0.05, 0.1)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        probs = rng.uniform(0.05, 0.9, size=n)
        dist = Independent(probs)
        i = int(rng.integers(n))
        h = alarm_probability(dist, i, insp)

        par = Network(FormulaTree(parallel(*range(n))))
        prior = system_failure_prob(par, dist)
        iv = posterior_interval(par, dist, i, insp)
        assert iv.lo == pytest.approx(prior * insp.fs(i) / (1 - h), abs=1e-12)
        assert iv.hi == pytest.approx(prior * (1 - insp.fs(i)) / h, abs=1e-12)

        srs = Network(FormulaTree(series(*range(n))))
        prior_s = system_failure_prob(srs, dist)
        iv_s = posterior_interval(srs, dist, i, insp)
        assert iv_s.lo == pytest.approx(
            1 - (1 - prior_s) * (1 - insp.fa(i)) / (1 - h), abs=1e-12)
        assert iv_s.hi == pytest.approx(
            1 - (1 - prior_s) * insp.fa(i) / h, abs=1e-12)


def test_intervals_from_one_fold_match_a_pass_per_component():
    # each component's halves taken by its own strided pass, as before the fold
    rng = np.random.default_rng(29)
    kinds = set()
    for _ in range(60):
        n = int(rng.integers(1, 10))
        net, dist = random_network(rng, n), random_distribution(rng, n)
        insp = InspectionModel(float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3)))
        kinds.add(type(dist).__name__)
        pmf, mass = _failure_masses(net, dist)
        prior, intervals = _intervals(net, dist, insp)
        assert prior == min(float(mass.sum()), 1.0)
        for i, iv in enumerate(intervals):
            outcomes = _outcomes(dist, i, insp)
            assert (iv is None) == (not outcomes)
            if iv is None:
                continue
            lo, hi = (min(max(_posterior_mean(strided_halves(pmf, i), strided_halves(mass, i), w),
                              0.0), 1.0) for _, _, w in outcomes)
            assert (iv.lo, iv.hi) == pytest.approx((lo, hi), rel=1e-12, abs=0.0)
            assert iv.alarm_prob == alarm_probability(dist, i, insp)
    assert kinds == {"Independent", "Explicit", "CommonCauseGroups"}
