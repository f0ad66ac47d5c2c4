"""Independent validation paths: Monte Carlo estimation and brute force.

Random numbers come from NumPy's Philox 4x64 counter-based generator
keyed with the configured seed. The sample budget splits over 32 equal
substreams (stream j is the base generator jumped j times), whose batch
means also provide the standard error, so estimates reproduce bit-for-bit
for a fixed seed and are straightforward to port. Each substream draws its
state masks with ``JointDistribution.sample``: one uniform per chunk of
whole belief blocks, by inverse CDF of the chunk's table; up to 12
components that is the inverse CDF of the pmf itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution
from .errors import SizeCapError
from .local_metrics import LocalCostModel, plan_expected_loss
from .model import _check_sizes

N_BATCHES = 32
BRUTE_FORCE_CAP = 12


@dataclass(frozen=True)
class SimulationConfig:
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")


def _substream(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(j))


def _batch_sizes(n: int) -> list[int]:
    b = min(N_BATCHES, n)
    base, extra = divmod(n, b)
    return [base + 1] * extra + [base] * (b - extra)


def _batched_mean(values_per_batch, sizes):
    n = sum(sizes)
    means = np.array([float(v.mean()) for v in values_per_batch])
    weights = np.array(sizes, dtype=float) / n
    estimate = float(weights @ means)
    b = len(sizes)
    if b < 2:
        spread = float(values_per_batch[0].std())
        return estimate, spread / math.sqrt(n)
    stderr = math.sqrt(b / (b - 1) * float(weights ** 2 @ (means - estimate) ** 2))
    return estimate, stderr


def mc_system_failure(net, dist: JointDistribution,
                      cfg: SimulationConfig) -> tuple[float, float]:
    """Monte Carlo estimate of the system failure probability, with stderr."""
    _check_sizes(net, dist)
    table = net.truth_table()
    sizes = _batch_sizes(cfg.n_samples)
    batches = []
    for j, size in enumerate(sizes):
        masks = dist.sample(_substream(cfg.seed, j), size)
        batches.append((~table[masks]).astype(float))
    return _batched_mean(batches, sizes)


def brute_force_plan_risks(net, dist: JointDistribution,
                           costs: LocalCostModel) -> np.ndarray:
    """Expected loss of every plan by plain plan-by-state enumeration.

    Reference for the plan-risk engine in netvoi.local_metrics: one
    ``plan_expected_loss`` per plan, which checks the sizes, capped at 12
    components because the enumeration is Theta(4^N).
    """
    n = net.n_components
    if n > BRUTE_FORCE_CAP:
        raise SizeCapError(
            f"brute-force plan enumeration is capped at {BRUTE_FORCE_CAP} components"
        )
    return np.array([plan_expected_loss(net, dist, plan, costs) for plan in range(1 << n)])
