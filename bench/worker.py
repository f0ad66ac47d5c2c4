"""The process that runs the program; ``run.py`` starts it and checks its outputs.

    worker.py setup SCENARIO...         import netvoi, parse and build each
                                        scenario, then exit (timed from outside)
    worker.py run PLAN.json RESULT.json run whole passes of CLI commands in
                                        this process and write what each printed
    worker.py cli ARG...                run one CLI command and print its output

Only the standard library is imported before netvoi, so a fresh ``setup``
process measures the program's own start-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

# Address-space limit of the beyond-cap child: a 2^32-state truth table
# (4 GiB of bools, 32 GiB of int64 masks) fails fast instead of paging
# the machine out.
BEYOND_CAP_AS_BYTES = 1 << 30
BEYOND_CAP_TIMEOUT_S = 60

# The speed probe run after every command (about 1.3 ms on the 2-core
# Xeon virtual machine of README.md's figures): its time tracks the speed
# of a shared host, which can drift by tens of percent within minutes.
PROBE_LOOP = 10_000
PROBE_SWEEPS = 4
PROBE_ARRAY = 1 << 18


def setup(paths) -> None:
    from netvoi.scenario import parse_scenario_file
    for path in paths:
        doc = parse_scenario_file(path)
        doc.build_network()
        doc.build_distribution()
        doc.build_inspection()
        doc.build_costs()
        doc.build_envelope()


def run_cli(argv):
    """One CLI invocation in this process: (exit code, stdout, stderr)."""
    from netvoi.cli import run_command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run_command(argv)
        except Exception:  # noqa: BLE001 - an escaped error is a failed operation
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def speed_probe(array) -> float:
    """Seconds taken by fixed work in the mix the commands do: interpreted
    Python, and numpy passes over a 2 MiB array."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    for _ in range(PROBE_SWEEPS):
        array *= 1.0000001
    return time.perf_counter() - t0


def probe_array():
    import numpy as np
    return np.ones(PROBE_ARRAY)


def run_pass(ops, array):
    """Each command, then the probe; both timed."""
    records = []
    for o in ops:
        t0 = time.perf_counter()
        rc, out, err = run_cli(o["argv"])
        records.append({"rc": rc, "time": time.perf_counter() - t0,
                        "probe": speed_probe(array), "out": out, "err": err})
    return records


def peak_rss_kb() -> int:
    """High-water resident memory of this process, VmHWM. Not ru_maxrss:
    across exec that keeps the high-water mark of the parent's memory."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (BEYOND_CAP_AS_BYTES, BEYOND_CAP_AS_BYTES))


def run_beyond_cap(argv):
    """The beyond-cap operation, in a child whose address space is limited."""
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "cli", *argv],
                              capture_output=True, text=True, timeout=BEYOND_CAP_TIMEOUT_S,
                              preexec_fn=_limit_address_space)
        return {"rc": proc.returncode, "out": proc.stdout, "err": proc.stderr[-2000:]}
    except subprocess.TimeoutExpired:
        return {"rc": -9, "out": "", "err": "timed out"}


def run(plan_path, result_path) -> None:
    plan = json.loads(Path(plan_path).read_text())
    import netvoi.cli  # noqa: F401 - the program is loaded before any timing
    array = probe_array()
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append({"records": run_pass(plan["ops"], array)})
        if plan["beyond_cap"]:
            passes[-1]["beyond_cap"] = run_beyond_cap(plan["beyond_cap"]["argv"])
        if tracer or time.perf_counter() - start >= plan["seconds"]:
            break
    result = {"passes": passes,
              "peak_rss_kb": peak_rss_kb()}
    if tracer:
        tracer.uninstall()
        tracer.write(plan["trace_file"])
        result["span_cost_s"] = tracer.span_cost()
    Path(result_path).write_text(json.dumps(result))


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        setup(args)
    elif mode == "run":
        run(*args)
    elif mode == "cli":
        rc, out, err = run_cli(args)
        sys.stdout.write(out)
        sys.stderr.write(err)
        return rc if 0 <= rc < 256 else 1
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
