"""Joint distributions over component-state masks.

Every distribution is immutable and exposes one factorised view,
``blocks()``: (member bits, weight table) pairs of mutually independent
blocks whose product is the pmf. A posterior after one inspection is one
such table with the likelihood multiplied in along one bit, not a new
distribution object. Masks follow the convention of :mod:`netvoi.model`:
bit i set means component i works, so "failure" of component i is a
cleared bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConditioningError
from .model import check_state

EXPLICIT_SUM_TOL = 1e-12


class JointDistribution:
    """Probability mass over the 2^N component-state masks.

    Subclasses set ``n_components`` and ``_blocks``; the pmf is the product
    of the block tables, bit j of a block's table index being the state of
    its j-th member.
    """

    n_components: int
    _blocks: tuple
    _vector: np.ndarray | None = None

    def blocks(self) -> tuple:
        """Independent blocks as (member bits, read-only weight table) pairs."""
        return self._blocks

    def pmf(self, state: int) -> float:
        check_state(state, self.n_components)
        out = 1.0
        for members, table in self._blocks:
            out *= float(table[_local_mask(state, members)])
        return out

    def pmf_vector(self) -> np.ndarray:
        """Read-only vector of probabilities indexed by mask."""
        if self._vector is None:
            masks = np.arange(1 << self.n_components, dtype=np.int64)
            v = np.ones(masks.size)
            for members, table in self._blocks:
                v *= table[_local_mask(masks, members)]
            v.flags.writeable = False
            self._vector = v
        return self._vector

    def marginal_failure(self, i: int) -> float:
        self._check_index(i)
        members, table = next(b for b in self._blocks if i in b[0])
        sub = np.arange(table.size, dtype=np.int64)
        return float(table[(sub >> members.index(i)) & 1 == 0].sum())

    def condition(self, evidence):
        """Condition on exact component states, given as {index: 0 or 1}."""
        masks = np.arange(1 << self.n_components, dtype=np.int64)
        keep = np.ones(masks.size, dtype=bool)
        for i, s in dict(evidence).items():
            self._check_index(i)
            keep &= ((masks >> i) & 1) == int(s)
        w = np.where(keep, self.pmf_vector(), 0.0)
        total = float(w.sum())
        if total <= 0.0:
            raise ConditioningError("evidence has probability zero")
        return Explicit(w / total)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_components:
            raise IndexError(f"component index {i} out of range")


def _local_mask(masks, members):
    """Block-table index of each mask: bit j is the state of members[j]."""
    sub = 0
    for j, m in enumerate(members):
        sub = sub | (((masks >> m) & 1) << j)
    return sub


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
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
    return (w / total).reshape(-1)


def _reweight_blocks(blocks, i: int, w_failed: float, w_working: float) -> tuple:
    """Blocks of a posterior: only the table holding component i changes."""
    return tuple((members, _reweight(table, members.index(i), w_failed, w_working))
                 if i in members else (members, table) for members, table in blocks)


class Independent(JointDistribution):
    """Product of per-component Bernoulli failure indicators."""

    def __init__(self, failure_probs):
        probs = tuple(float(p) for p in failure_probs)
        if not probs:
            raise ValueError("need at least one component")
        for i, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"failure probability {p} of component {i} not in [0, 1]")
        self.failure_probs = probs
        self.n_components = len(probs)
        self._blocks = tuple(((i,), _frozen([p, 1.0 - p])) for i, p in enumerate(probs))

    def condition(self, evidence):
        probs = list(self.failure_probs)
        for i, s in dict(evidence).items():
            self._check_index(i)
            p = probs[i]
            if s == 0:
                if p <= 0.0:
                    raise ConditioningError(f"component {i} never fails")
                probs[i] = 1.0
            else:
                if p >= 1.0:
                    raise ConditioningError(f"component {i} never works")
                probs[i] = 0.0
        return Independent(probs)

    def sample(self, rng, size):
        p = np.asarray(self.failure_probs)
        working = rng.random((size, self.n_components)) >= p
        powers = np.left_shift(np.int64(1), np.arange(self.n_components, dtype=np.int64))
        return working @ powers


class Explicit(JointDistribution):
    """Arbitrary pmf stored as one weight per mask: a single N-bit block."""

    def __init__(self, weights):
        arr = np.array(weights, dtype=float)
        size = arr.size
        if size < 2 or size & (size - 1):
            raise ValueError("weight count must be a power of two, at least 2")
        if np.any(arr < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > EXPLICIT_SUM_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        arr.flags.writeable = False
        self.n_components = size.bit_length() - 1
        self._vector = arr
        self._blocks = ((tuple(range(self.n_components)), arr),)

    def sample(self, rng, size):
        cdf = np.cumsum(self._vector)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, rng.random(size), side="right")
        return np.minimum(idx, self._vector.size - 1).astype(np.int64)


class _SharedCauseBlock:
    """Exchangeable group whose failures share one latent cause.

    Component i of the group fails as ``f_i = D_i * Z + (1 - D_i) * E_i``
    with D_i ~ Bernoulli(sqrt(rho)) choosing between the shared source Z
    and a private source E_i, both Bernoulli(p). Marginals stay at p and
    every pair correlates at exactly rho; conditioned on Z the components
    are independent, so the block pmf is a two-term mixture of products.
    """

    def __init__(self, members, p, rho):
        members = tuple(int(m) for m in members)
        if not members:
            raise ValueError("a group needs at least one member")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"group failure probability {p} not in [0, 1]")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"group correlation {rho} not in [0, 1)")
        self.members = members
        self.p = float(p)
        self.rho = float(rho)
        self._theta = math.sqrt(self.rho)
        a = self._theta + (1.0 - self._theta) * self.p  # failure given the shared cause
        b = (1.0 - self._theta) * self.p  # failure without it
        sub = np.arange(1 << len(members), dtype=np.int64)
        active = np.ones(sub.size)
        inactive = np.ones(sub.size)
        for j in range(len(members)):
            working = ((sub >> j) & 1).astype(bool)
            active *= np.where(working, 1.0 - a, a)
            inactive *= np.where(working, 1.0 - b, b)
        self.table = _frozen(self.p * active + (1.0 - self.p) * inactive)

    def sample(self, rng, size):
        k = len(self.members)
        z = rng.random(size) < self.p
        d = rng.random((size, k)) < self._theta
        e = rng.random((size, k)) < self.p
        failed = np.where(d, z[:, None], e)
        powers = np.left_shift(np.int64(1), np.arange(k, dtype=np.int64))
        return (~failed) @ powers


class Group:
    """Specification of one shared-cause group: members, marginal p, correlation rho."""

    def __init__(self, members, p, rho=0.0):
        self.members = tuple(int(m) for m in members)
        self.p = float(p)
        self.rho = float(rho)


class CommonCauseGroups(JointDistribution):
    """Product of independent shared-cause groups, one block each.

    Groups are given as :class:`Group` specs and must partition the
    component indices.
    """

    def __init__(self, groups, n_components: int | None = None):
        blocks = sorted((_SharedCauseBlock(g.members, g.p, g.rho) for g in groups),
                        key=lambda b: min(b.members))
        covered = [m for b in blocks for m in b.members]
        if len(set(covered)) != len(covered):
            raise ValueError("groups overlap")
        n = (max(covered) + 1) if covered else 0
        if n_components is not None:
            n = int(n_components)
        if sorted(covered) != list(range(n)):
            raise ValueError(f"groups must partition components 0..{n - 1}")
        self.groups = tuple(blocks)
        self.n_components = n
        self._blocks = tuple((b.members, b.table) for b in blocks)

    def marginal_failure(self, i: int) -> float:
        self._check_index(i)
        return next(g.p for g in self.groups if i in g.members)

    def sample(self, rng, size):
        out = np.zeros(size, dtype=np.int64)
        for block in self.groups:
            local = block.sample(rng, size)
            for j, m in enumerate(block.members):
                out |= ((local >> j) & 1) << m
        return out


def system_failure_prob(net, dist: JointDistribution) -> float:
    """Exact probability that the system is down, by full enumeration."""
    if net.n_components != dist.n_components:
        raise ValueError("network and distribution disagree on the component count")
    table = net.truth_table()
    return float(dist.pmf_vector()[~table].sum())
