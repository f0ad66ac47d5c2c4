"""Generated scenarios: JSON round trip, CLI exit codes, and CSV/JSON agreement.

Documents have at most five components and cover every structure kind
(formula, ST graph, truth table), every belief kind (independent,
explicit, groups) and every envelope kind, with certain components and
per-component rates among them.
"""

import contextlib
import csv
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netvoi import parse_scenario
from netvoi.cli import run_command
from netvoi.output import format_number

EXIT_CODES = {0, 1, 2, 64}
TABLE_COMMANDS = [["intervals"], ["actions"]] + [
    ["rank", "--metric", m] for m in ("global", "local", "heuristic", "bm", "crt", "raw", "rrw")]

probabilities = st.one_of(st.sampled_from([0.0, 1.0]),
                          st.floats(0.0, 1.0, allow_subnormal=False))
rates = st.floats(0.0, 0.49, allow_subnormal=False)


def per_component(n, values):
    return st.one_of(values, st.lists(values, min_size=n, max_size=n))


@st.composite
def formulas(draw, ids, series=True, top=True):
    if len(ids) == 1:
        if top or draw(st.booleans()):
            return f"{'series' if series else 'parallel'}({ids[0]})"
        return ids[0]
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), min_size=1)))
    parts = [ids[a:b] for a, b in zip([0] + cuts, cuts + [len(ids)])]
    inner = [draw(formulas(part, not series, top=False)) for part in parts]
    return f"{'series' if series else 'parallel'}({', '.join(inner)})"


@st.composite
def structures(draw, ids):
    n = len(ids)
    kind = draw(st.sampled_from(["formula", "st_graph", "truth_table"]))
    if kind == "formula":
        order = draw(st.permutations(ids))
        return {"formula": draw(formulas(order, series=draw(st.booleans())))}
    if kind == "truth_table":
        paths = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
        table = "".join("1" if any(m & p == p for p in paths) else "0" for m in range(1 << n))
        return {"truth_table": table}
    labels = list(ids) + [f"j{k}" for k in range(draw(st.integers(0, 2)))] + ["o", "s"]
    edges = []
    for label in labels:  # every label on at least one edge, never o with s
        other = draw(st.sampled_from([x for x in labels if {x, label} - {"o", "s"}
                                      and x != label]))
        edges.append(draw(st.permutations([label, other])))
    pairs = st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)
    edges += draw(st.lists(pairs.filter(lambda e: set(e) != {"o", "s"}), max_size=2 * n))
    return {"st_graph": {"edges": edges, "directed": draw(st.booleans())}}


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 5))
    ids = [f"c{i + 1}" for i in range(n)]
    components = [{"id": cid} for cid in ids]
    if draw(st.booleans()):
        for k, comp in enumerate(components):
            comp["name"] = f"unit {k}"
    kind = draw(st.sampled_from(["independent", "explicit", "groups"]))
    if kind == "independent":
        for comp in components:
            comp["failure_probability"] = draw(probabilities)
        dependence = {"kind": kind}
    elif kind == "explicit":
        weights = draw(st.lists(st.integers(0, 4), min_size=1 << n, max_size=1 << n)
                       .filter(any))
        dependence = {"kind": kind, "weights": [w / sum(weights) for w in weights]}
    else:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups = [{"members": [cid for cid, g in zip(ids, labels) if g == label],
                   "p": draw(probabilities), "rho": draw(st.floats(0.0, 0.95))}
                  for label in sorted(set(labels))]
        dependence = {"kind": kind, "groups": groups}
    envelope = draw(st.sampled_from(["quadratic", "binary", None, None]))
    c_fail = draw(st.floats(0.1, 10.0))
    # the binary envelope needs min(c_repair)/c_fail strictly inside (0, 1)
    repair = (st.floats(0.0, c_fail, exclude_min=True, exclude_max=True,
                        allow_subnormal=False) if envelope == "binary" else st.floats(0.0, 2.0))
    doc = {
        "schema_version": "1",
        "components": components,
        "structure": draw(structures(ids)),
        "dependence": dependence,
        "inspection": {"eps_fa": draw(per_component(n, rates)),
                       "eps_fs": draw(per_component(n, rates))},
        "costs": {"c_fail": c_fail, "c_repair": draw(per_component(n, repair))},
    }
    if envelope:
        doc["envelope"] = envelope
    else:
        action = st.fixed_dictionaries({"cost": st.floats(0.0, 5.0),
                                        "residual_risk": st.floats(0.0, 1.0)})
        doc["global_actions"] = draw(st.lists(action, min_size=1, max_size=3))
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(obj=scenarios(), cap=st.sampled_from(["20", "20", "3"]))
def test_generated_scenarios_round_trip_and_print_alike(tmp_path, obj, cap):
    doc = parse_scenario(json.dumps(obj))
    assert parse_scenario(doc.to_json()) == doc
    path = tmp_path / "doc.json"
    path.write_text(doc.to_json())
    common = [str(path), "--cap", cap]
    for argv in (["reliability"], ["reliability", "--mc-samples", "300"], ["plot"]):
        assert run(argv + common)[0] in EXIT_CODES, argv
    for argv in TABLE_COMMANDS:
        code, text, err = run(argv + common)
        json_code, json_text, json_err = run(argv + common + ["--format", "json"])
        assert code in EXIT_CODES, argv
        assert (json_code, json_err) == (code, err), argv
        if code != 0:
            continue
        header, *rows = list(csv.reader(io.StringIO(text)))
        entries = json.loads(json_text)["rows"]
        assert len(rows) == len(entries) == doc.n_components, argv
        for row, entry in zip(rows, entries):
            assert list(entry) == header, argv
            for cell, value in zip(row, entry.values()):
                if isinstance(value, float):  # the same 12-digit number in both
                    assert (cell, float(cell)) == (format_number(value), value), argv
                else:
                    assert cell == str(value), argv
