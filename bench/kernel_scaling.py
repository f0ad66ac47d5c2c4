"""Time of one plan_failure_risks call against N, outside any workload.

    python3 bench/kernel_scaling.py              (N = 8 10 12 14 16 18)

The network is a parallel of series pairs (the last block a single
component when N is odd) with independent failure probabilities 0.01 to
0.3; the lattice sweep visits 3^N cells whatever the structure. Prints
one row per N: the median of three calls (one call at N >= 17) and the
cells swept per second.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import netvoi as nv  # noqa: E402

SIZES = (8, 10, 12, 14, 16, 18)


def network(n: int):
    blocks = [nv.series(i, i + 1) if i + 1 < n else i for i in range(0, n, 2)]
    return nv.Network(nv.FormulaTree(nv.parallel(*blocks) if len(blocks) > 1 else blocks[0]))


def main(sizes) -> None:
    print("N  seconds_per_call  cells_per_s")
    for n in sizes:
        net = network(n)
        dist = nv.Independent([0.01 + 0.29 * i / max(n - 1, 1) for i in range(n)])
        net.truth_table()
        dist.pmf_vector()
        times = []
        for _ in range(1 if n >= 17 else 3):
            t0 = time.perf_counter()
            nv.plan_failure_risks(net, dist)
            times.append(time.perf_counter() - t0)
        t = statistics.median(times)
        print(f"{n:<2} {t:<17.4g} {3 ** n / t:.3g}", flush=True)


if __name__ == "__main__":
    main(SIZES)
