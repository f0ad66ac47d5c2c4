"""Benchmark of the netvoi CLI on the paper's case studies.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload's CLI commands (see workloads.py)
through ``netvoi.cli.run_command`` in a worker process, checks every
output against the independent references in reference.py, and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
their times scaled by the worker's speed probes (``scaled_times``);
with ``--trace 1`` the worker runs one pass with every public netvoi
function wrapped (tracer.py), and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# One thread per process: the workloads are single-threaded by design.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from worker import probe_array, speed_probe  # noqa: E402

# Set-up runs per run, half before and half after the passes, so the
# median spans the run rather than one moment of it; each is scaled by the
# median of SETUP_SPEED_PROBES speed probes taken just before it.
SETUP_RUNS = 6
SETUP_SPEED_PROBES = 21
# Median time of worker.speed_probe inside the worker on the machine of
# the reference figures in README.md; every time metric is scaled to it.
PROBE_REFERENCE_S = 0.0014
# Commands on each side whose speed probes scale a command's time.
PROBE_WINDOW = 8
# A run must end within 180 s; the worker is stopped before that.
RUN_LIMIT_S = 170.0

COMMAND_METRICS = {
    "local": "local_s", "heuristic": "heuristic_s", "actions": "actions_s",
    "global": "global_s", "intervals": "intervals_s", "bm": "importance_s",
    "crt": "importance_s", "raw": "importance_s", "rrw": "importance_s",
    "reliability": "reliability_s", "mc": "mc_reliability_s", "plot": "plot_s",
}


def worker(*args, timeout):
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout)


def setup_times(paths, count: int) -> list[float]:
    """Wall times of fresh interpreters that import netvoi and build the
    scenarios, scaled to the reference speed of the host."""
    times, array = [], probe_array()
    for _ in range(count):
        probe = statistics.median(speed_probe(array) for _ in range(SETUP_SPEED_PROBES))
        t0 = time.perf_counter()
        proc = worker("setup", *paths, timeout=60)
        times.append((time.perf_counter() - t0) * PROBE_REFERENCE_S / probe)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def check_run(wl: dict, result: dict) -> tuple[list, int, int]:
    """Check every output; return (errors, attempted, failed)."""
    checker = checks.Checker(checks.references_for(wl["docs"], wl["same_joint"]))
    attempted = failed = 0
    for p in result["passes"]:
        values: dict = {}
        for o, rec in zip(wl["ops"], p["records"]):
            attempted += 1
            if rec["rc"] != 0:
                failed += 1
                continue
            stray = [ln for ln in rec["err"].splitlines() if not ln.startswith("warning: ")]
            if stray:
                checker.fail(" ".join(o["argv"]), f"unexpected stderr: {stray[:3]}")
            checker.check(o, rec["out"], values)
        checker.check_pass(values)
        if "beyond_cap" in p:
            attempted += 1
            rec = p["beyond_cap"]
            if rec["rc"] != 0:
                failed += 1
            else:
                # Two layered16 copies in series fail unless both copies work.
                f16 = checker.refs["layered16"][0].prior
                o = wl["beyond_cap"]
                checker.check_mc(" ".join(o["argv"]), checks.parse("mc", "csv", rec["out"])[1][0],
                                 1.0 - (1.0 - f16) ** 2,
                                 int(o["argv"][o["argv"].index("--mc-samples") + 1]))
    return checker.errors, attempted, failed


def scaled_times(result: dict) -> list[list[float]]:
    """Each command's time scaled to the reference speed of the host.

    A command's scale is PROBE_REFERENCE_S over the median of the speed
    probes of the PROBE_WINDOW commands on each side of it (its own
    included), over the run's passes in the order they ran: a command timed
    on a slow moment of the host reads as one timed on a fast moment.
    """
    probes = [rec["probe"] for p in result["passes"] for rec in p["records"]]
    scaled, i = [], 0
    for p in result["passes"]:
        scaled.append([])
        for rec in p["records"]:
            near = probes[max(i - PROBE_WINDOW, 0):i + PROBE_WINDOW + 1]
            scaled[-1].append(rec["time"] * PROBE_REFERENCE_S / statistics.median(near))
            i += 1
    return scaled


def end_to_end(wl: dict, result: dict, setup_s: float) -> dict:
    """Medians of the run's scaled times; ``setup_s`` comes scaled by its own probes."""
    samples: dict = {name: [] for name in sorted(set(COMMAND_METRICS.values()))}
    rates = []
    for p, times in zip(result["passes"], scaled_times(result)):
        ok = 0
        for o, rec, t in zip(wl["ops"], p["records"], times):
            if rec["rc"] == 0:
                ok += 1
                samples[COMMAND_METRICS[o["cmd"]]].append(t)
        rates.append(ok / sum(times))
    metrics = {"setup_s": (setup_s, "s"),
               "commands_per_s": (statistics.median(rates), "1/s")}
    for name, values in samples.items():
        if not values:
            raise RuntimeError(f"no successful command measured {name}")
        metrics[name] = (statistics.median(values), "s")
    metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(result: dict, trace_file: Path) -> dict:
    traced, = result["passes"]
    spans = json.loads(trace_file.read_text())["spans"]
    out_bytes = sum(len(r["out"].encode("utf-8")) for r in traced["records"])
    return layer_metrics(spans, result["span_cost_s"], out_bytes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        runs = 0 if args.trace else SETUP_RUNS // 2
        setup = setup_times(wl["setup"], runs)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        plan = {"ops": wl["ops"], "beyond_cap": wl["beyond_cap"], "seconds": args.seconds,
                "trace": bool(args.trace), "trace_file": str(trace_file)}
        plan_file, result_file = workdir / "plan.json", workdir / "result.json"
        plan_file.write_text(json.dumps(plan))
        proc = worker("run", str(plan_file), str(result_file),
                      timeout=max(RUN_LIMIT_S - (time.perf_counter() - started), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr}")
        result = json.loads(result_file.read_text())
        setup += setup_times(wl["setup"], runs)
        errors, attempted, failed = check_run(wl, result)
        metrics = (per_layer(result, trace_file) if args.trace
                   else end_to_end(wl, result, statistics.median(setup)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
