"""Golden CLI bytes: every command and format on every scenario.

The goldens live in ``tests/golden/<scenario>/<command>.<format>``: the
stdout of ``reliability`` (exact and Monte Carlo), ``intervals``,
``actions`` and ``rank`` under each of the seven metrics, in CSV and in
JSON, plus the ``plot`` SVG, on each ``scenarios/*.json`` file and on the
substation written as an explicit table. Regenerate them, after a change
that is meant to alter the output, from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from netvoi.cli import run_command
from netvoi.scenario import parse_scenario_file

from conftest import SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
METRICS = ("global", "local", "heuristic", "bm", "crt", "raw", "rrw")
COMMANDS = [("reliability", ["reliability"]),
            ("reliability-mc", ["reliability", "--mc-samples", "20000", "--seed", "3"]),
            ("intervals", ["intervals"]),
            ("actions", ["actions"])]
COMMANDS += [(f"rank-{m}", ["rank", "--metric", m]) for m in METRICS]


def scenario_files(tmp: Path) -> dict:
    """Scenario name to path: the committed scenarios and the explicit substation."""
    paths = {p.stem: p for p in sorted(SCENARIO_DIR.glob("*.json"))}
    doc = parse_scenario_file(paths["substation"])
    obj = json.loads(doc.to_json())
    obj["dependence"] = {"kind": "explicit",
                         "weights": doc.build_distribution().pmf_vector().tolist()}
    paths["substation_explicit"] = tmp / "substation_explicit.json"
    paths["substation_explicit"].write_text(json.dumps(obj))
    return paths


def cases(tmp: Path):
    """(golden file name, argv) of every output, in a fixed order."""
    for name, path in scenario_files(tmp).items():
        for label, argv in COMMANDS:
            for fmt in ("csv", "json"):
                yield f"{name}/{label}.{fmt}", argv + [str(path), "--format", fmt]
        yield f"{name}/plot.svg", ["plot", str(path)]


def stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def read_golden(name: str) -> str:
    with open(GOLDEN_DIR / name, encoding="utf-8", newline="") as handle:
        return handle.read()


def test_cli_outputs_match_goldens(tmp_path):
    names = []
    for name, argv in cases(tmp_path):
        names.append(name)
        got, want = stdout_of(argv), read_golden(name)
        if got != want:
            line = next(k for k, (a, b) in enumerate(
                zip_longest(got.splitlines(True), want.splitlines(True)), 1) if a != b)
            raise AssertionError(f"{name} differs from its golden first at line {line}")
    on_disk = sorted(str(p.relative_to(GOLDEN_DIR)) for p in GOLDEN_DIR.rglob("*") if p.is_file())
    assert on_disk == sorted(names), "golden files without a case, or cases without a file"


def write_goldens() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases(Path(tmp)):
            path = GOLDEN_DIR / name
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(stdout_of(argv))
    print(f"wrote {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
