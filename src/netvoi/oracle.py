"""Monte Carlo estimation of the system failure probability.

Random numbers come from NumPy's Philox 4x64 counter-based generator keyed
with the configured seed, an integer in [0, 2^128). The n samples split over
min(32, n) substreams whose sizes differ by at most one (stream j is the
base generator jumped j times, built directly with 2^128 j as its counter).
Their batch means give the standard error, so an estimate needs 2 samples;
estimates reproduce bit-for-bit for a fixed seed. Each substream is drawn
and its failures counted in pieces of at most PIECE draws, so memory holds
one piece whatever n is. A Philox stream yields the same uniforms whether
drawn in one call or in pieces, so the pieces change no draw, and a batch
mean is its exact failure count over its size. A piece draws its state
masks with ``JointDistribution.sample``: one uniform per chunk of whole
belief blocks, by inverse CDF of the chunk's table; up to 16 components
that is the inverse CDF of the pmf. A guide table of at least 4096 buckets
per chunk (Chen and Asau's indexed search) finds nearly every draw's state
with one lookup and one comparison and binary-searches the rest, so each
draw is the binary search's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution
from .model import _check_sizes

N_BATCHES = 32
# Draws per piece of a substream. Keep a piece's float64 arrays (8 bytes per
# draw per sampling chunk) well below 256 KiB, so each piece reuses the heap
# memory the last one freed where whole batches mapped fresh pages. A
# 1e6-draw substation estimate, among the benchmark's substation commands on
# a 2-core machine (median of three 10 s runs), took 22.0 / 21.1 / 22.5 ms and
# no minor faults in pieces of 4,096 / 8,192 / 16,384 draws, but 28.9 ms and
# 4,832 faults in pieces of 32,768, as in whole batches of 31,250.
PIECE = 8192


@dataclass(frozen=True)
class SimulationConfig:
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        for name, value in (("n_samples", self.n_samples), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.n_samples < 2:  # the standard error needs two batch means
            raise ValueError(f"need at least 2 samples, not {self.n_samples}")
        if not 0 <= self.seed < 1 << 128:  # the Philox key
            raise ValueError(f"seed {self.seed} is outside [0, 2**128)")


def _substream(seed: int, j: int) -> np.random.Generator:
    """Philox keyed by ``seed`` and jumped j times: one jump adds 2^128 to the counter."""
    return np.random.Generator(np.random.Philox(counter=[0, 0, j, 0], key=seed))


def _batch_sizes(n: int) -> list[int]:
    b = min(N_BATCHES, n)
    base, extra = divmod(n, b)
    return [base + 1] * extra + [base] * (b - extra)


def _batched_mean(counts, sizes):
    means = np.array([count / size for count, size in zip(counts, sizes)])
    weights = np.array(sizes, dtype=float) / sum(sizes)
    estimate = float(weights @ means)
    b = len(sizes)
    return estimate, math.sqrt(b / (b - 1) * float(weights ** 2 @ (means - estimate) ** 2))


def mc_system_failure(net, dist: JointDistribution,
                      cfg: SimulationConfig) -> tuple[float, float]:
    """Monte Carlo estimate of the system failure probability, with stderr."""
    _check_sizes(net, dist)
    failed = ~net.truth_table()
    sizes = _batch_sizes(cfg.n_samples)
    counts = []
    for j, size in enumerate(sizes):
        rng = _substream(cfg.seed, j)
        counts.append(sum(np.count_nonzero(failed[dist.sample(rng, min(PIECE, size - start))])
                          for start in range(0, size, PIECE)))
    return _batched_mean(counts, sizes)
