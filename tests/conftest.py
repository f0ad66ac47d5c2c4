"""Shared fixtures: the worked example systems used throughout the suite."""

import math
from pathlib import Path

import numpy as np
import pytest

from netvoi import (CommonCauseGroups, FormulaTree, Group, Independent,
                    LocalCostModel, Network, STGraph, parallel, plan_expected_loss, series)
from netvoi.oracle import _batch_sizes, _substream

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / name)


# ---------------------------------------------------------------- three-branch
# Six components in three parallel branches of two in series; component
# failure probabilities 0.1 .. 0.6 in index order.

THREE_BRANCH_PROBS = (0.1, 0.4, 0.2, 0.5, 0.3, 0.6)


def make_three_branch() -> Network:
    return Network(FormulaTree(parallel(series(0, 1), series(2, 3), series(4, 5))))


@pytest.fixture
def three_branch():
    return make_three_branch(), Independent(THREE_BRANCH_PROBS)


@pytest.fixture
def three_branch_costs():
    return LocalCostModel.uniform(6, 1.0, 0.1)


@pytest.fixture
def three_branch_alt_costs():
    # component c2 becomes twice as expensive to replace
    return LocalCostModel(1.0, (0.1, 0.2, 0.1, 0.1, 0.1, 0.1))


# ---------------------------------------------------------------- crossed pair
# Two monitored components (indices 0 and 1) embedded in a six-unit network
# whose posterior intervals cross: the reliable one spans [~0.009, ~0.20],
# the vulnerable one only [~0.005, ~0.034].

CROSSED_PAIR_PROBS = (0.01, 0.20, 0.005, 0.023, 0.023, 0.90)


def make_crossed_pair():
    structure = parallel(series(2, parallel(series(3, 0), series(4, 1))), 5)
    return Network(FormulaTree(structure)), Independent(CROSSED_PAIR_PROBS)


def crossed_pair_reference():
    """Independent enumeration of the crossed-pair system.

    Hand-rolled product pmf and connectivity predicate, kept free of the
    library so tests can cross-check it.
    """
    probs = CROSSED_PAIR_PROBS

    def works(mask):
        up = [(mask >> i) & 1 for i in range(6)]
        top = up[2] and ((up[3] and up[0]) or (up[4] and up[1]))
        return 1 if (top or up[5]) else 0

    pmf = np.empty(64)
    for mask in range(64):
        p = 1.0
        for i, q in enumerate(probs):
            p *= (1.0 - q) if (mask >> i) & 1 else q
        pmf[mask] = p
    return pmf, works


@pytest.fixture
def crossed_pair():
    return make_crossed_pair()


# ------------------------------------------------------------------- layered16
# Sixteen components in two parallel halves; c1/c4/c7 and c8/c16 are the
# chokepoints of their halves.

LAYERED16_EDGES = (
    ("o", "c1"), ("c1", "c2"), ("c1", "c3"), ("c2", "c4"), ("c3", "c4"),
    ("c4", "c5"), ("c4", "c6"), ("c5", "c7"), ("c6", "c7"), ("c7", "s"),
    ("o", "c8"), ("c8", "c9"), ("c8", "c10"), ("c9", "c11"), ("c9", "c12"),
    ("c10", "c12"), ("c10", "c13"), ("c11", "c14"), ("c12", "c14"),
    ("c12", "c15"), ("c13", "c15"), ("c14", "c16"), ("c15", "c16"),
    ("c16", "s"),
)


def make_layered16() -> Network:
    names = [f"c{i}" for i in range(1, 17)]
    return Network(STGraph(names, LAYERED16_EDGES), names=names)


def layered16_reference(p: float):
    """Independent truth table and pmf of layered16 with every failure probability p.

    The connectivity predicate spells out the minimal path sets by hand:
    the upper half is the series chain c1 (c2|c3) c4 (c5|c6) c7, the lower
    half runs c8, then one of c9-c11-c14, c9-c12-c14, c9-c12-c15,
    c10-c12-c14, c10-c12-c15 or c10-c13-c15, then c16. The pmf is the
    closed form p^failed (1-p)^working. No library code is involved.
    """
    masks = np.arange(1 << 16, dtype=np.int64)
    c = [None] + [((masks >> i) & 1).astype(bool) for i in range(16)]
    upper = c[1] & (c[2] | c[3]) & c[4] & (c[5] | c[6]) & c[7]
    middle = ((c[9] & c[11] & c[14])
              | ((c[9] | c[10]) & c[12] & (c[14] | c[15]))
              | (c[10] & c[13] & c[15]))
    table = upper | (c[8] & middle & c[16])
    failed = sum((~up).astype(int) for up in c[1:])
    pmf = p ** failed * (1.0 - p) ** (16 - failed)
    return table, pmf


# ------------------------------------------------------------------ substation
# Twelve-component double-line substation with a tie breaker between the
# lines and a cross link in the switch layer. Junction labels b1..b4 model
# the buses.

SUBSTATION_NAMES = ("DS1", "DS2", "DS3", "CB1", "CB2", "PT1", "PT2",
                    "DB1", "DB2", "TB", "FB1", "FB2")
SUBSTATION_EDGES = (
    ("o", "DS1"), ("o", "DS2"),
    ("DS1", "b1"), ("DS3", "b1"), ("b1", "CB1"),
    ("CB1", "PT1"), ("PT1", "DB1"), ("DB1", "b3"), ("b3", "FB1"), ("FB1", "s"),
    ("DS2", "b2"), ("DS3", "b2"), ("b2", "CB2"),
    ("CB2", "PT2"), ("PT2", "DB2"), ("DB2", "b4"), ("b4", "FB2"), ("FB2", "s"),
    ("TB", "b3"), ("TB", "b4"),
)
P_SWITCHGEAR = 9.53e-3
P_TRANSFORMER = 2.32e-3


def make_substation(rho_ds: float = 0.0):
    net = Network(STGraph(SUBSTATION_NAMES, SUBSTATION_EDGES),
                  names=SUBSTATION_NAMES)
    groups = [
        Group([0, 1, 2], P_SWITCHGEAR, rho_ds),
        Group([3, 4], P_SWITCHGEAR, 0.0),
        Group([5, 6], P_TRANSFORMER, 0.0),
        Group([7, 8], P_SWITCHGEAR, 0.0),
        Group([9], P_TRANSFORMER, 0.0),
        Group([10, 11], P_SWITCHGEAR, 0.0),
    ]
    return net, CommonCauseGroups(groups, n_components=12)


def substation_reference(rho_ds: float):
    """Independent truth table and pmf of the substation, hand-rolled.

    Bus b1 is fed through DS1, or through DS3 from DS2 (b2 likewise); each
    line carries its bus through breaker, transformer and disconnector to
    its feeder bus, and the tie breaker lets either line reach either
    feeder. The switch group's pmf is the closed form of the one-factor
    model: given the shared cause Z, each switch fails independently with
    probability sqrt(rho) + (1 - sqrt(rho)) p when Z fails and
    (1 - sqrt(rho)) p when it does not. All other groups have rho = 0 and
    so are independent. No library code is involved.
    """
    masks = np.arange(1 << 12, dtype=np.int64)
    up = {name: ((masks >> i) & 1).astype(bool)
          for i, name in enumerate(SUBSTATION_NAMES)}
    bus1 = up["DS1"] | (up["DS3"] & up["DS2"])
    bus2 = up["DS2"] | (up["DS3"] & up["DS1"])
    line1 = bus1 & up["CB1"] & up["PT1"] & up["DB1"]
    line2 = bus2 & up["CB2"] & up["PT2"] & up["DB2"]
    table = ((line1 & (up["FB1"] | (up["TB"] & up["FB2"])))
             | (line2 & (up["FB2"] | (up["TB"] & up["FB1"]))))

    theta = rho_ds ** 0.5
    p = P_SWITCHGEAR
    fail_given_z, fail_given_not_z = theta + (1.0 - theta) * p, (1.0 - theta) * p
    given_z, given_not_z = np.ones(masks.size), np.ones(masks.size)
    for name in ("DS1", "DS2", "DS3"):
        given_z *= np.where(up[name], 1.0 - fail_given_z, fail_given_z)
        given_not_z *= np.where(up[name], 1.0 - fail_given_not_z, fail_given_not_z)
    pmf = p * given_z + (1.0 - p) * given_not_z
    for name in SUBSTATION_NAMES[3:]:
        q = P_TRANSFORMER if name in ("PT1", "PT2", "TB") else P_SWITCHGEAR
        pmf = pmf * np.where(up[name], 1.0 - q, q)
    return table, pmf


def make_groups_across_sampling_chunks():
    """Twenty components whose groups cut across the 16-bit sampling chunks.

    By lowest member, {0,1}, {2,17,19} and the singles 3..13 fill the first
    16 bits; the group {14,15,18} straddles bit 16 and opens the second
    chunk, with the single 16.
    """
    groups = [Group([0, 1], 0.2, 0.5), Group([2, 17, 19], 0.3, 0.6),
              Group([14, 15, 18], 0.1, 0.4)]
    groups += [Group([m], 0.05 + 0.03 * m, 0.0) for m in (*range(3, 14), 16)]
    return CommonCauseGroups(groups)


# ------------------------------------------------------ plan-risk reference

def brute_force_plan_risks(net, dist, costs) -> np.ndarray:
    """Expected loss of every plan, one ``plan_expected_loss`` per mask.

    The plan-risk engine's reference: plan-by-state enumeration, Theta(4^N)
    and capless, so keep N small.
    """
    return np.array([plan_expected_loss(net, dist, plan, costs)
                     for plan in range(1 << net.n_components)])


# ------------------------------------------------------ Monte Carlo reference

def whole_batch_mc(net, dist, cfg) -> tuple[float, float]:
    """``mc_system_failure`` with each substream drawn in one ``sample`` call.

    Each batch is its substream's whole draw, reduced by the mean of its
    bool failure indicators; batch means weighted by size give the estimate
    and the standard error. Counting the same draws in pieces must give
    these floats exactly.
    """
    failed = ~net.truth_table()
    sizes = _batch_sizes(cfg.n_samples)
    means = np.array([float(failed[dist.sample(_substream(cfg.seed, j), size)].mean())
                      for j, size in enumerate(sizes)])
    weights = np.array(sizes, dtype=float) / sum(sizes)
    estimate = float(weights @ means)
    b = len(sizes)
    return estimate, math.sqrt(b / (b - 1) * float(weights ** 2 @ (means - estimate) ** 2))


# ------------------------------------------------------------ halves reference

def strided_halves(x: np.ndarray, i: int) -> tuple[float, float]:
    """Sums of ``x``, indexed by mask, over the states where component i has failed and works.

    Bit i splits the masks into runs of 2^i failed then 2^i working states,
    so a (-1, 2, 2^i) view separates the halves: two strided sums per bit,
    the reference the one fold of ``_fold_halves`` is checked against.
    """
    v = x.reshape(-1, 2, 1 << i)
    return float(v[:, 0].sum()), float(v[:, 1].sum())


# ----------------------------------------------------------- random instances

def random_formula(rng: np.random.Generator, n: int):
    """Random series/parallel tree over components 0..n-1, each used once."""
    order = list(rng.permutation(n))

    def build(indices, make_series):
        if len(indices) == 1:
            return indices[0]
        k = 1 if len(indices) == 2 else int(rng.integers(1, len(indices) - 1))
        left = build(indices[:k], not make_series)
        right_parts = [left, build(indices[k:], not make_series)]
        return series(*right_parts) if make_series else parallel(*right_parts)

    return build(order, bool(rng.integers(2)))


def random_network(rng: np.random.Generator, n: int) -> Network:
    return Network(FormulaTree(random_formula(rng, n)))


def random_distribution(rng: np.random.Generator, n: int, lo=0.02, hi=0.98):
    """Random joint: independent, explicit, or shared-cause groups."""
    kind = rng.integers(3)
    if kind == 0:
        return Independent(rng.uniform(lo, hi, size=n))
    if kind == 1:
        w = rng.uniform(0.01, 1.0, size=1 << n)
        return dict_to_explicit(w)
    groups = []
    start = 0
    order = list(rng.permutation(n))
    while start < n:
        size = int(rng.integers(1, min(3, n - start) + 1))
        members = order[start:start + size]
        groups.append(Group(members, float(rng.uniform(lo, hi)),
                            float(rng.uniform(0.0, 0.9))))
        start += size
    return CommonCauseGroups(groups, n_components=n)


def dict_to_explicit(weights):
    from netvoi import Explicit
    w = np.asarray(weights, dtype=float)
    return Explicit(w / w.sum())
