"""Golden CLI bytes: every command and format on every scenario.

The goldens live in ``tests/golden/<scenario>/<command>.<format>``: the
stdout of ``intervals``, ``actions`` and ``rank`` under each of the seven
metrics, in CSV and in JSON, plus the one format of ``reliability`` (exact
and Monte Carlo) and the ``plot`` SVG, on each ``scenarios/*.json`` file
and on the substation written as an explicit table. Regenerate them,
after a change that is meant to alter the output, from the repository
root with

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
TABLES = [("intervals", ["intervals"]), ("actions", ["actions"])]
TABLES += [(f"rank-{m}", ["rank", "--metric", m]) for m in METRICS]
# the commands that print one format and take no --format
ONE_FORMAT = [("reliability.csv", ["reliability"]),
              ("reliability-mc.csv", ["reliability", "--mc-samples", "20000", "--seed", "3"]),
              ("plot.svg", ["plot"])]


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
        for label, argv in TABLES:
            for fmt in ("csv", "json"):
                yield f"{name}/{label}.{fmt}", argv + [str(path), "--format", fmt]
        for file, argv in ONE_FORMAT:
            yield f"{name}/{file}", argv + [str(path)]


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


def test_every_json_golden_is_a_table():
    paths = sorted(GOLDEN_DIR.rglob("*.json"))
    assert paths
    for path in paths:
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(obj, dict) and isinstance(obj.get("rows"), list), path


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
