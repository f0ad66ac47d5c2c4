"""Joint distributions: pmf evaluation, marginals, conditioning, sampling."""

import bisect
import itertools
import math
import re

import numpy as np
import pytest

from netvoi import (CommonCauseGroups, ConditioningError, Explicit, FormulaTree,
                    Group, Independent, JointDistribution, Network, parallel,
                    series, system_failure_prob)
from netvoi.distributions import (GUIDE_FLOOR, SAMPLE_BITS, _frozen, _fuse, _indexed_search,
                                  _reweight, _reweight_blocks, _search_table,
                                  _shared_cause_table)
from netvoi.local_metrics import CHUNK_BITS

from conftest import (crossed_pair_reference, make_crossed_pair,
                      make_groups_across_sampling_chunks, random_distribution)


def test_independent_pmf_product_rule():
    dist = Independent([0.5, 0.5])
    assert dist.pmf(0b00) == pytest.approx(0.25)
    assert dist.pmf(0b11) == pytest.approx(0.25)
    assert dist.marginal_failure(0) == 0.5


def test_independent_marginals_are_stored():
    dist = Independent([0.1, 0.4])
    assert dist.marginal_failure(0) == 0.1
    assert dist.marginal_failure(1) == 0.4


def test_explicit_lookup_and_validation():
    dist = Explicit([0.1, 0.2, 0.3, 0.4])
    assert dist.pmf(2) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        Explicit([0.5, 0.6])  # does not sum to one
    with pytest.raises(ValueError):
        Explicit([1.2, -0.2])
    with pytest.raises(ValueError):
        Explicit([0.5, 0.25, 0.25])  # not a power of two
    for weights in ([math.nan] * 4, [math.inf, 0.0, 0.0, 0.0], [math.nan, 1.0]):
        with pytest.raises(ValueError):
            Explicit(weights)


@pytest.mark.parametrize("blocks, message", [
    ([((0, 2), [0.1, 0.2, 0.3, 0.4])], "block (0, 2): members must partition components 0..1"),
    ([((0, 1), [0.7, 0.7, -0.2, -0.2])], "block (0, 1): weights must be finite and nonnegative"),
    ([((0, 0), [0.1, 0.2, 0.3, 0.4])], "block (0, 0): members must partition components 0..1"),
    ([((0, 1), [0.1, 0.2, 0.7])], "block (0, 1): weights must be 4 numbers"),
    ([((0,), [0.5, 0.6]), ((1,), [0.5, 0.5])], "block (0,): weights sum to 1.1, not 1"),
], ids=["member-past-n", "negative-weight", "repeated-member", "wrong-size", "sum"])
def test_joint_distribution_refuses_a_block_by_name(blocks, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        JointDistribution(blocks)


def test_explicit_marginal_from_crossed_pair():
    pmf, _ = crossed_pair_reference()
    dist = Explicit(pmf)
    assert dist.marginal_failure(1) == pytest.approx(0.20, abs=1e-12)


def test_shared_cause_group_at_zero_correlation_is_independence():
    group = CommonCauseGroups([Group([0, 1], 0.2, 0.0)])
    assert group.pmf(0b00) == pytest.approx(0.04, abs=1e-15)
    reference = Independent([0.2, 0.2])
    assert np.allclose(group.pmf_vector(), reference.pmf_vector(), atol=1e-15)


def test_shared_cause_group_preserves_marginals():
    for rho in (0.0, 0.3, 0.7, 0.95):
        dist = CommonCauseGroups([Group([0, 1, 2], 0.2, rho)])
        for i in range(3):
            assert dist.marginal_failure(i) == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("rho", [0.0, 0.15, 0.4, 0.8])
def test_shared_cause_pairwise_correlation_is_exact(size, rho):
    p = 0.3
    dist = CommonCauseGroups([Group(range(size), p, rho)])
    pmf = dist.pmf_vector()
    masks = np.arange(pmf.size)
    fail = [((masks >> i) & 1) == 0 for i in range(size)]
    var = p * (1.0 - p)
    for i in range(size):
        for j in range(i + 1, size):
            joint = float(pmf[fail[i] & fail[j]].sum())
            corr = (joint - p * p) / var
            assert corr == pytest.approx(rho, abs=1e-9)


def test_group_validation():
    with pytest.raises(ValueError):
        CommonCauseGroups([Group([0, 1], 0.2, 1.0)])  # rho must stay below 1
    with pytest.raises(ValueError):
        CommonCauseGroups([Group([0], 1.2, 0.0)])
    with pytest.raises(ValueError):
        CommonCauseGroups([Group([0, 1], 0.2, 0.0), Group([1], 0.1, 0.0)])
    with pytest.raises(ValueError):
        CommonCauseGroups([Group([0, 2], 0.2, 0.0)], n_components=3)


def test_normalization_across_variants():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        dist = random_distribution(rng, n)
        assert abs(float(dist.pmf_vector().sum()) - 1.0) < 1e-12


def _run_product(blocks, bits, state: int) -> float:
    """Product of the entries at ``state`` of the blocks on ``bits``, by lowest member."""
    run = sorted((b for b in blocks if set(b[0]) <= set(bits)), key=lambda b: min(b[0]))
    on = {m: (state >> j) & 1 for j, m in enumerate(bits)}
    return math.prod(float(table[sum(on[m] << j for j, m in enumerate(members))])
                     for members, table in run)


def test_pmf_vector_is_the_per_mask_product():
    # the vector, the engine's steps and the sampler's chunks multiply whole
    # tables; the scalar products look up each block's entry per state, in
    # the same order, so they agree byte for byte
    rng = np.random.default_rng(13)
    beliefs = [random_distribution(rng, int(rng.integers(1, 9))) for _ in range(100)]
    wide = rng.uniform(0.01, 1.0, size=32)  # a 5-bit block, members out of bit order
    mixed = JointDistribution([((6, 0, 3, 2, 5), _frozen(wide / wide.sum())),
                               ((1,), _frozen([0.3, 0.7])), ((4,), _frozen([0.15, 0.85]))])
    # blocks given out of order are kept by lowest member, for the scalar pmf too
    reversed_singles = JointDistribution([((3 - i,), _frozen([p, 1.0 - p]))
                                          for i, p in enumerate(rng.uniform(0.01, 0.99, 4))])
    for dist in beliefs + [mixed, reversed_singles]:
        expected = np.array([dist.pmf(m) for m in range(1 << dist.n_components)])
        assert dist.pmf_vector().tobytes() == expected.tobytes()
    for dist in beliefs[:30] + [mixed, make_groups_across_sampling_chunks()]:
        for width in (CHUNK_BITS, SAMPLE_BITS):
            for bits, table in _fuse(dist.blocks(), width):
                expected = np.array([_run_product(dist.blocks(), bits, t)
                                     for t in range(1 << len(bits))])
                assert table.tobytes() == expected.tobytes()


def test_system_failure_probability_parallel():
    net = Network(FormulaTree(parallel(0, 1)))
    assert system_failure_prob(net, Independent([0.5, 0.5])) == pytest.approx(0.25)


def test_system_failure_probability_crossed_pair():
    net, dist = make_crossed_pair()
    pmf, works = crossed_pair_reference()
    expected = sum(pmf[m] for m in range(64) if not works(m))
    assert system_failure_prob(net, dist) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.0109, abs=0.0005)


def test_condition_independent_hard_evidence():
    dist = Independent([0.1, 0.4])
    post = dist.condition({0: 0})
    assert post.marginal_failure(0) == 1.0
    assert post.marginal_failure(1) == 0.4
    with pytest.raises(ConditioningError):
        Independent([0.0, 0.4]).condition({0: 0})


def test_condition_past_the_pmf_size_keeps_the_blocks():
    # 2^64 masks admit no pmf vector: each piece of evidence reweights one table
    post = Independent([0.1] * 64).condition({0: 0, 5: 1})
    assert isinstance(post, JointDistribution) and post.n_components == 64
    assert [post.marginal_failure(j) for j in range(64)] == [1.0] + [0.1] * 4 + [0.0] + [0.1] * 58


def test_condition_series_survivor_formula():
    # conditioning a series system on one component working rescales the
    # remaining failure probability to 1 - (1 - p_sys) / (1 - p_i)
    net = Network(FormulaTree(series(0, 1, 2)))
    dist = Independent([0.1, 0.2, 0.3])
    prior = system_failure_prob(net, dist)
    for i, p_i in enumerate((0.1, 0.2, 0.3)):
        post = system_failure_prob(net, dist.condition({i: 1}))
        assert post == pytest.approx(1.0 - (1.0 - prior) / (1.0 - p_i), abs=1e-12)


def test_condition_shared_cause_group_raises_partner_failure():
    dist = CommonCauseGroups([Group([0, 1, 2], 0.2, 0.4)])
    post = dist.condition({0: 0})
    # reference: enumerate the mixture table by hand and condition it
    full = dist.pmf_vector()
    masks = np.arange(8)
    sel = (masks & 1) == 0
    expected = float(full[sel & (((masks >> 1) & 1) == 0)].sum() / full[sel].sum())
    got = post.marginal_failure(1)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got > 0.2


def test_condition_explicit_zero_probability_evidence():
    dist = Explicit([0.5, 0.5, 0.0, 0.0])  # component 1 never works
    with pytest.raises(ConditioningError):
        dist.condition({1: 1})


def test_condition_names_a_state_other_than_0_or_1():
    beliefs = (Independent([0.1, 0.4]), Explicit([0.25] * 4),
               CommonCauseGroups([Group([0, 1], 0.2, 0.3)]))
    for dist in beliefs:
        for state in (2, -1, 0.5):
            with pytest.raises(ValueError, match=rf"component 1 .* 0 or 1, not {state}"):
                dist.condition({0: 1, 1: state})


def test_reweight_matches_explicit_route():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        dist = random_distribution(rng, n)
        i = int(rng.integers(n))
        w0, w1 = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))
        masks = np.arange(1 << n)
        ref = dist.pmf_vector() * np.where((masks >> i) & 1, w1, w0)
        ref = ref / ref.sum()
        assert np.allclose(_reweight(dist.pmf_vector(), i, w0, w1), ref, atol=1e-12)
        # block route: only the block holding i changes, and the product of
        # the blocks is the reweighted pmf
        prior_blocks = dist.blocks()
        post_blocks = _reweight_blocks(prior_blocks, i, w0, w1)
        for (members, table), (_, post) in zip(prior_blocks, post_blocks):
            assert (post is table) == (i not in members)
        product = [math.prod(float(t[sum(((m >> b) & 1) << j for j, b in enumerate(mem))])
                             for mem, t in post_blocks) for m in range(1 << n)]
        assert np.allclose(product, ref, atol=1e-12)


def test_sampling_is_deterministic_and_matches_marginals():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    dist = CommonCauseGroups([Group([0, 1], 0.3, 0.5), Group([2], 0.2, 0.0)])
    a = dist.sample(rng_a, 2000)
    b = dist.sample(rng_b, 2000)
    assert np.array_equal(a, b)
    fail0 = float(((a & 1) == 0).mean())
    assert abs(fail0 - 0.3) < 0.05
    # empirical joint failure of the correlated pair tracks the mixture table
    joint = float((((a & 1) == 0) & (((a >> 1) & 1) == 0)).mean())
    expected = float(dist.pmf_vector()[np.arange(8) & 3 == 0].sum())
    assert abs(joint - expected) < 0.05


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p, rho", [(0.3, 0.0), (0.01, 0.4), (0.2, 0.15), (0.7, 0.8),
                                    (0.0, 0.5), (1.0, 0.3)])
def test_shared_cause_table_is_the_latent_model(k, p, rho):
    # enumerate Z, D_1..D_k and E_1..E_k; member j fails as D_j*Z + (1 - D_j)*E_j
    theta = math.sqrt(rho)

    def bern(x, q):
        return q if x else 1.0 - q

    ref = [0.0] * (1 << k)
    for z in (0, 1):
        for d in itertools.product((0, 1), repeat=k):
            for e in itertools.product((0, 1), repeat=k):
                prob = bern(z, p) * math.prod(bern(dj, theta) for dj in d) \
                    * math.prod(bern(ej, p) for ej in e)
                failed = [z if dj else ej for dj, ej in zip(d, e)]
                ref[sum((1 - f) << j for j, f in enumerate(failed))] += prob
    table = _shared_cause_table(Group(range(k), p, rho))
    np.testing.assert_allclose(table, ref, rtol=0.0, atol=1e-15)


def _spread_table(n, seed):
    w = np.random.default_rng(seed).uniform(0.0, 1.0, size=1 << n) ** 3
    return w / w.sum()


def _point_mass(n, at):
    table = np.zeros(1 << n)
    table[at] = 1.0
    return table


@pytest.mark.parametrize("table", [
    np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.25, 0.0, 0.0]),  # zero weights first and last
    np.array([0.125, 0.0, 0.0, 0.0, 0.375, 0.0, 0.5, 0.0]),  # and in the middle
    _point_mass(1, 0), _point_mass(3, 5), _point_mass(6, 63),
    np.array([0.25, 0.75 + 1e-13, 0.0, 0.0]),  # the cumsum passes 1.0 at state 1
    np.array([0.1] * 10 + [1e-13] + [0.0] * 5),  # and at state 10
    _spread_table(6, 1), _spread_table(12, 2), _spread_table(13, 3), _spread_table(14, 4),
    _spread_table(15, 5), _spread_table(16, 6),
], ids=lambda t: f"{t.size}-states")
def test_indexed_search_is_the_binary_search(table):
    cdf, guide = _search_table(table)
    buckets = guide.size
    assert buckets == max(table.size, GUIDE_FLOOR)
    edges = np.arange(buckets) / buckets
    inner = cdf[cdf < 1.0]
    u = np.concatenate([edges, np.nextafter(edges[1:], 0.0), inner, np.nextafter(inner, 0.0),
                        np.nextafter(inner, 1.0), np.random.default_rng(0).random(20_000)])
    u = u[u < 1.0]
    assert np.array_equal(_indexed_search(cdf, guide, u), np.searchsorted(cdf, u, side="right"))


def _one_chunk_belief(kind, n, rng):
    """An n-component belief of one kind; "groups" puts a group on bits 0 and n - 1."""
    if kind == "independent":
        return Independent(rng.uniform(0.02, 0.5, size=n))
    if kind == "explicit":
        w = rng.uniform(0.0, 1.0, size=1 << n) ** 3
        return Explicit(w / w.sum())
    rest = range(1, n - 1)
    return CommonCauseGroups([Group([0, n - 1], 0.3, 0.6)]
                             + [Group(rest[i:i + 3], 0.05 + 0.01 * i, 0.4)
                                for i in range(0, len(rest), 3)])


@pytest.mark.parametrize("kind", ["independent", "groups", "explicit"])
@pytest.mark.parametrize("n", [3, 13, 16])
def test_one_chunk_draws_are_a_plain_inverse_cdf(kind, n):
    # up to SAMPLE_BITS components a draw is one uniform through the pmf's cdf
    assert n <= SAMPLE_BITS
    dist = _one_chunk_belief(kind, n, np.random.default_rng(n))
    cdf = list(itertools.accumulate(dist.pmf_vector().tolist()))
    cdf[-1] = 1.0
    reference = np.random.default_rng(99)
    expected = [bisect.bisect_right(cdf, u) for u in reference.random(3000).tolist()]
    rng = np.random.default_rng(99)
    assert dist.sample(rng, 3000).tolist() == expected
    assert rng.random() == reference.random()  # and no more uniforms than draws


@pytest.mark.parametrize("make", [
    lambda: Independent(np.linspace(0.05, 0.5, 20)),
    lambda: Independent(np.linspace(0.5, 0.02, 20)),
    make_groups_across_sampling_chunks,
])
def test_multi_chunk_draws_match_the_pmf(make):
    dist = make()
    n, size = dist.n_components, 100_000
    assert n > SAMPLE_BITS
    masks = dist.sample(np.random.default_rng(7), size)
    assert masks.dtype == np.int64
    assert int(masks.min()) >= 0 and int(masks.max()) < (1 << n)
    failed = (((masks[:, None] >> np.arange(n)) & 1) == 0).astype(float)
    freq = failed.T @ failed / size  # diagonal: marginals; off it: pairs
    for i in range(n):
        half = failed_half(dist.pmf_vector(), i)
        for j in range(i, n):
            q = float((half if j == i else failed_half(half, j - 1)).sum())
            se = math.sqrt(q * (1.0 - q) / size)
            assert abs(freq[i, j] - q) <= 5.0 * se, (i, j, freq[i, j], q)


def failed_half(x, bit):
    """Entries of a mask-indexed vector where ``bit`` is clear, that bit dropped."""
    return x.reshape(-1, 2, 1 << bit)[:, 0, :].reshape(-1)
