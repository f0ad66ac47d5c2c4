"""Joint distributions over component-state masks.

Every distribution is immutable and exposes one factorised view,
``blocks()``: (member bits, weight table) pairs of mutually independent
blocks whose product is the pmf. A posterior after one inspection keeps
the prior's blocks but one, whose table has the likelihood multiplied in
along one bit, so it never forms the 2^N pmf. ``_product_table`` builds
every product of tables, the pmf included, and ``_failure_masses`` a
failure mass: the pmf times the system's failure after one repair plan.
Masks follow the convention of :mod:`netvoi.model`: bit i set means
component i works, so "failure" of component i is a cleared bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CORRELATION, NONNEGATIVE, PROBABILITY, ConditioningError
from .model import _bit_sums, _check_sizes, _fold_halves, check_state

EXPLICIT_SUM_TOL = 1e-12
# Bits of one sampling chunk, drawn with one uniform: at 16 bits its cdf, guide and
# masks take 512 KB each. Chunks of up to 12 bits keep the GUIDE_FLOOR of 4,096 buckets.
SAMPLE_BITS = 16
GUIDE_FLOOR = 1 << 12


class JointDistribution:
    """Probability mass over the 2^N component-state masks: the product of ``blocks``.

    Bit j of a block's table index is the state of its j-th member, and the
    members of all blocks are the components 0 .. N-1. Blocks are kept in
    order of their lowest member, the order in which every product takes them.
    The constructor checks the blocks it is given; each subclass builds its
    own blocks from the inputs it checks.
    """

    n_components: int
    _blocks: tuple
    _vector: np.ndarray | None = None
    _chunks: tuple | None = None

    def __init__(self, blocks):
        blocks = [(tuple(members), table) for members, table in blocks]
        self.n_components = n = sum(len(members) for members, _ in blocks)
        seen = set()
        for members, _ in blocks:
            if not (members and seen.isdisjoint(members) and len(set(members)) == len(members)
                    and all(m in range(n) for m in members)):
                raise ValueError(f"block {members}: members must partition components 0..{n - 1}")
            seen.update(members)
        self._blocks = tuple(sorted(((m, _weights(t, len(m), f"block {m}: weights"))
                                     for m, t in blocks), key=lambda b: min(b[0])))

    def blocks(self) -> tuple:
        """Independent blocks as (member bits, read-only weight table) pairs."""
        return self._blocks

    def pmf(self, state: int) -> float:
        check_state(state, self.n_components)
        return math.prod(float(table[sum(((state >> m) & 1) << j for j, m in enumerate(members))])
                         for members, table in self._blocks)

    def pmf_vector(self) -> np.ndarray:
        """Read-only vector of probabilities indexed by mask: the one product of all blocks."""
        if self._vector is None:
            self._vector = _frozen(_fuse(self._blocks, self.n_components)[0][1])
        return self._vector

    def marginal_failure(self, i: int) -> float:
        return self._marginal(i)[0]

    def _marginal(self, i: int) -> tuple[float, float]:
        """Probabilities that component i has failed and that it works."""
        self._check_index(i)
        return self._marginals[i]

    @functools.cached_property
    def _marginals(self) -> dict:
        """Every component's marginal pair, kept from first use: one fold of each block table."""
        return {m: pair for members, table in self._blocks
                for m, pair in zip(members, _fold_halves(table, np.empty(table.size // 2)))}

    def condition(self, evidence):
        """Condition on exact component states, given as {index: 0 or 1}.

        State s of component i is an inspection with likelihood (1, 0) for a
        failure or (0, 1) for a working component, reweighting one block.
        """
        blocks = self._blocks
        for i, s in dict(evidence).items():
            self._check_index(i)
            if s not in (0, 1):
                raise ValueError(f"evidence on component {i} must be state 0 or 1, not {s!r}")
            blocks = _reweight_blocks(blocks, i, float(s == 0), float(s == 1))
        return JointDistribution(blocks)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` masks by inverse CDF, one uniform per chunk: of ``pmf_vector()`` if N <= 16."""
        if self._chunks is None:  # (cdf, guide, state masks; None on bits 0..k-1) per chunk
            self._chunks = tuple((*_search_table(table), None if bits[-1] == len(bits) - 1
                                  else _bit_sums([1 << b for b in bits]))
                                 for bits, table in _fuse(self._blocks, SAMPLE_BITS))
        u = rng.random((size, len(self._chunks)))
        draws = None
        for c, (cdf, guide, masks) in enumerate(self._chunks):
            idx = _indexed_search(cdf, guide, u[:, c])
            idx = idx if masks is None else masks[idx]
            draws = idx if draws is None else np.bitwise_or(draws, idx, out=draws)
        return draws

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_components:
            raise IndexError(f"component index {i} out of range")


def _product_table(blocks, bits) -> np.ndarray:
    """Product of the block tables over ``bits``; index bit j is the state of bits[j].

    The tables multiply in block order as successive outer products, each
    in front of the last, and one transpose puts the axes in bit order: no
    move at all when the members ascend through the blocks.
    """
    v, axes = np.ones(()), []
    for members, table in blocks:
        v = np.multiply.outer(table.reshape((2,) * len(members)), v)
        axes[:0] = reversed(members)  # a table's first axis is its last member
    return v.transpose([axes.index(b) for b in reversed(bits)]).reshape(-1)


def _fuse(blocks, width: int) -> list:
    """Products of ``blocks`` up to ``width`` bits, as (ascending bits, ``_product_table``).

    Blocks, in order, join the open product unless that takes it past
    ``width`` bits, so a wider block is a product alone. A lone block
    whose members ascend is its own product, and keeps its table. The
    plan-risk engine fuses its steps this way, ``sample`` its chunks and
    ``pmf_vector`` all blocks, at full width.
    """
    runs = [[]]
    for block in blocks:
        if runs[-1] and len(sum((m for m, _ in runs[-1]), block[0])) > width:
            runs.append([])
        runs[-1].append(block)
    bits = [tuple(sorted(sum((members for members, _ in run), ()))) for run in runs]
    return [(b, run[0][1] if run[0][0] == b else _product_table(run, b))
            for b, run in zip(bits, runs)]


def _search_table(table) -> tuple:
    """(cdf, guide) of a weight table, for ``_indexed_search``.

    The cdf is the running sum with its last entry set to 1.0, so every
    uniform in [0, 1) lands on a state. ``guide[g]`` is the first state
    whose cdf exceeds g / G, for G = max(states, GUIDE_FLOOR) buckets: a
    power of two, so g / G is exact.
    """
    cdf = np.cumsum(table)
    cdf[-1] = 1.0
    buckets = max(cdf.size, GUIDE_FLOOR)
    return cdf, np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")


def _indexed_search(cdf, guide, u) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")``, found by Chen and Asau's indexed search.

    A uniform u in bucket g = floor(u G) lies at or above g / G, so its
    state is at or after ``guide[g]``; it is ``guide[g]`` itself unless
    that state's cdf is at most u, and only those few uniforms are
    searched. u G is exact, as G is a power of two.
    """
    idx = guide[(u * guide.size).astype(np.intp)]
    miss = np.flatnonzero(cdf[idx] <= u)
    idx[miss] = np.searchsorted(cdf, u[miss], side="right")
    return idx


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float array; a float array is frozen in place."""
    arr = np.asarray(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _weights(table, k: int, name: str) -> np.ndarray:
    """``table`` as a frozen array, refused by ``name`` unless it is 2^k finite,
    nonnegative weights that sum to 1 within EXPLICIT_SUM_TOL."""
    arr = _frozen(table)
    if arr.shape != (1 << k,):
        raise ValueError(f"{name} must be {1 << k} numbers, not an array of shape {arr.shape}")
    if not np.all(np.isfinite(arr) & NONNEGATIVE.test(arr)):
        raise ValueError(f"{name} must be finite and nonnegative")
    total = float(arr.sum())
    if not abs(total - 1.0) <= EXPLICIT_SUM_TOL:
        raise ValueError(f"{name} sum to {total}, not 1")
    return arr


def _reweight(table: np.ndarray, bit: int, w_failed: float, w_working: float) -> np.ndarray:
    """Posterior weights: ``table`` times a likelihood along ``bit``, renormalised.

    States in which the component on that bit has failed are scaled by
    ``w_failed``, the others by ``w_working``.
    """
    w = table.reshape(-1, 2, 1 << bit) * np.array([[w_failed], [w_working]])
    total = float(w.sum())
    if total <= 0.0:
        raise ConditioningError("observation has probability zero")
    return _frozen((w / total).reshape(-1))


def _reweight_blocks(blocks, i: int, w_failed: float, w_working: float) -> tuple:
    """Blocks of a posterior: only the table holding component i changes."""
    return tuple((members, _reweight(table, members.index(i), w_failed, w_working))
                 if i in members else (members, table) for members, table in blocks)


class Independent(JointDistribution):
    """Product of per-component Bernoulli failure indicators."""

    def __init__(self, failure_probs):
        self.failure_probs = tuple(PROBABILITY.check(p, f"failure probability of component {i}")
                                   for i, p in enumerate(failure_probs))
        if not self.failure_probs:
            raise ValueError("need at least one component")
        self.n_components = len(self.failure_probs)
        self._blocks = tuple(((i,), _frozen([p, 1.0 - p]))
                             for i, p in enumerate(self.failure_probs))


class Explicit(JointDistribution):
    """Arbitrary pmf stored as one weight per mask: a single N-bit block."""

    def __init__(self, weights):
        arr = np.array(weights, dtype=float)
        size = arr.size
        if size < 2 or size & (size - 1):
            raise ValueError("weight count must be a power of two, at least 2")
        self.n_components = n = size.bit_length() - 1
        self._blocks = ((tuple(range(n)), _weights(arr, n, "weights")),)


def _shared_cause_table(group) -> np.ndarray:
    """Block weights of a group whose failures share one latent cause.

    Member j fails as ``D_j * Z + (1 - D_j) * E_j``, D_j ~ Bernoulli(sqrt(rho)),
    Z and E_j ~ Bernoulli(p): marginals p, every pair correlated at exactly
    rho. Given Z the members are independent: a mixture of two products.
    """
    k, p, rho = len(group.members), group.p, group.rho
    theta = math.sqrt(rho)
    a = theta + (1.0 - theta) * p  # failure given the shared cause
    b = (1.0 - theta) * p  # failure without it
    active = _product_table([((j,), np.array([a, 1.0 - a])) for j in range(k)], range(k))
    inactive = _product_table([((j,), np.array([b, 1.0 - b])) for j in range(k)], range(k))
    return _frozen(p * active + (1.0 - p) * inactive)


class Group:
    """Specification of one shared-cause group: members, marginal p, correlation rho."""

    def __init__(self, members, p, rho=0.0):
        self.members = tuple(int(m) for m in members)
        if not self.members:
            raise ValueError("a group needs at least one member")
        self.p = PROBABILITY.check(p, "group failure probability")
        self.rho = CORRELATION.check(rho, "group correlation")


class CommonCauseGroups(JointDistribution):
    """Product of independent shared-cause groups, one block each.

    Groups are given as :class:`Group` specs and must partition the
    component indices. A group of k members has a 2^k table, built on first
    use, so that a network's component cap is checked before it.
    """

    def __init__(self, groups, n_components: int | None = None):
        groups = list(groups)
        covered = [m for g in groups for m in g.members]
        if len(set(covered)) != len(covered):
            raise ValueError("groups overlap")
        n = max(covered, default=-1) + 1 if n_components is None else int(n_components)
        if sorted(covered) != list(range(n)):
            raise ValueError(f"groups must partition components 0..{n - 1}")
        self.groups = tuple(sorted(groups, key=lambda g: min(g.members)))
        self.n_components = n

    @functools.cached_property
    def _blocks(self) -> tuple:
        return tuple((g.members, _shared_cause_table(g)) for g in self.groups)

    @functools.cached_property
    def _marginals(self) -> dict:
        """Each member's pair (p, 1 - p) from its group, so no table is built for it."""
        return {m: (g.p, 1.0 - g.p) for g in self.groups for m in g.members}


def _failure_masses(net, dist: JointDistribution, plan: int = 0) -> tuple:
    """The pmf, and the failure mass pmf(s)·fail(s | plan) over all masks s."""
    _check_sizes(net, dist)
    pmf, fail = dist.pmf_vector(), ~net.truth_table()
    if plan:  # fail(s | plan) by a gather of rows, then of columns: no 2^N index
        low = 1 << net.n_components // 2
        fail = (fail.reshape(-1, low).take(np.arange(fail.size // low) | plan // low, axis=0)
                .take(np.arange(low) | plan % low, axis=1).reshape(-1))
    return pmf, pmf * fail


def _failure_prob(mass) -> float:
    """Total of a failure mass; an explicit table sums to 1 only within EXPLICIT_SUM_TOL."""
    return min(float(mass.sum()), 1.0)


def system_failure_prob(net, dist: JointDistribution) -> float:
    """Exact probability that the system is down, by full enumeration."""
    _, mass = _failure_masses(net, dist)
    return _failure_prob(mass)
