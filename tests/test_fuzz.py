"""Generated scenarios: JSON round trip, CLI exit codes, and CSV/JSON agreement.

Documents have at most five components and cover every structure kind
(formula, ST graph, truth table), every belief kind (independent,
explicit, groups) and every envelope kind, with certain components and
per-component rates among them. Each one, with one field made invalid,
must be rejected with exactly one error at that field's path.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netvoi import ScenarioError, parse_scenario
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


# Invalid in every numeric field: each must be a finite number, and none may be negative.
BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-0.5", '"0.1"', "true", "null"]


def numeric_fields(doc):
    """Keys leading to each numeric field of a generated document."""
    n = len(doc["components"])
    keys = [("components", k, "failure_probability")
            for k, comp in enumerate(doc["components"]) if "failure_probability" in comp]
    keys += [("dependence", "weights", k) for k in range(len(doc["dependence"].get("weights", [])))]
    for k in range(len(doc["dependence"].get("groups", []))):
        keys += [("dependence", "groups", k, "p"), ("dependence", "groups", k, "rho")]
    for section, key in (("inspection", "eps_fa"), ("inspection", "eps_fs"), ("costs", "c_repair")):
        keys += ([(section, key, k) for k in range(n)]
                 if isinstance(doc[section][key], list) else [(section, key)])
    keys.append(("costs", "c_fail"))
    for k in range(len(doc.get("global_actions", []))):
        keys += [("global_actions", k, "cost"), ("global_actions", k, "residual_risk")]
    return keys


def field_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


@st.composite
def corrupted_scenarios(draw):
    """JSON text of a generated document with one field made invalid, and that field's path."""
    doc = draw(scenarios())
    n = len(doc["components"])
    fault = draw(st.sampled_from(["number", "length", "name"] if n > 1 else ["number", "length"]))
    if fault == "name":  # a name another component already has
        k = draw(st.integers(1, n - 1))
        first = doc["components"][0]
        doc["components"][k]["name"] = first.get("name", first["id"])
        return json.dumps(doc), f"components[{k}].name"
    if fault == "length":  # one entry too many
        keys = draw(st.sampled_from([("inspection", "eps_fa"), ("inspection", "eps_fs"),
                                     ("costs", "c_repair")]
                                    + [("dependence", "weights")] * ("weights" in doc["dependence"])))
        size = (1 << n) + 1 if keys[-1] == "weights" else n + 1
        doc[keys[0]][keys[1]] = [0.0] * size
        return json.dumps(doc), field_path(keys)
    keys = draw(st.sampled_from(numeric_fields(doc)))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "@bad@"
    text = json.dumps(doc).replace('"@bad@"', draw(st.sampled_from(BAD_NUMBERS)))
    # explicit weights are checked as one table, and reported at the list
    return text, field_path(keys[:2] if keys[1] == "weights" else keys)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=corrupted_scenarios())
def test_one_invalid_field_is_one_error_at_its_path(tmp_path, case):
    text, path = case
    try:
        parse_scenario(text)
    except ScenarioError as exc:
        errors = exc.errors
    else:
        raise AssertionError(f"{path} was not rejected")
    assert len(errors) == 1 and errors[0].startswith(f"{path}: "), errors
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert run(["reliability", str(doc)]) == (1, "", f"error: {errors[0]}\n")


# Faults of each structure kind; each makes one part of the payload invalid.
STRUCTURE_FAULTS = {
    "st_graph": ["label", "arity", "loop", "same", "component", "directed"],
    "truth_table": ["character", "short", "long", "non-monotone"],
    "formula": ["unknown", "repeated", "trailing", "unclosed", "unopened"],
}


@st.composite
def corrupted_structures(draw, kind, fault):
    """JSON text of a generated document whose ``kind`` structure has ``fault``, and its path."""
    doc = draw(scenarios())
    ids = [comp["id"] for comp in doc["components"]]
    doc["structure"] = draw(structures(ids).filter(lambda structure: kind in structure))
    payload = doc["structure"][kind]
    path = f"structure.{kind}"
    if kind == "st_graph":
        edges = payload["edges"]
        k = draw(st.integers(0, len(edges) - 1))
        if fault == "label":  # not a string
            edges[k][draw(st.integers(0, 1))] = draw(st.sampled_from([1, None, ["o"]]))
            path += f".edges[{k}]"
        elif fault == "arity":
            edges[k] = draw(st.sampled_from([edges[k][:1], edges[k] + ["o"]]))
            path += f".edges[{k}]"
        elif fault == "loop":
            edges.append([edges[k][0]] * 2)
        elif fault == "same":  # source and sink are one node
            payload.update(draw(st.sampled_from([{"source": "s"}, {"sink": "o"}])))
        elif fault == "component":  # a terminal that is also a component
            payload[draw(st.sampled_from(["source", "sink"]))] = draw(st.sampled_from(ids))
        else:
            payload["directed"] = draw(st.sampled_from([0, 1, "true", None, []]))
            path += ".directed"
    elif kind == "truth_table":
        k = draw(st.integers(0, len(payload) - 1))
        doc["structure"][kind] = {
            "character": payload[:k] + draw(st.sampled_from("2x -")) + payload[k + 1:],
            "short": payload[:-1],
            "long": payload + "1",
            # up with every component failed, down with none
            "non-monotone": "1" + payload[1:-1] + "0",
        }[fault]
    else:
        cid = draw(st.sampled_from(ids))
        doc["structure"][kind] = {
            "unknown": payload.replace(cid, "c9", 1),
            "repeated": f"series({payload}, {cid})",
            "trailing": payload + draw(st.sampled_from([")", ",", " c9", f" {cid}"])),
            "unclosed": payload[:-1],
            "unopened": "(" + payload,
        }[fault]
    return json.dumps(doc), path


@pytest.mark.parametrize("kind, fault", [(kind, fault) for kind, faults in STRUCTURE_FAULTS.items()
                                         for fault in faults])
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_one_invalid_structure_part_is_one_error_at_its_path(tmp_path, kind, fault, data):
    text, path = data.draw(corrupted_structures(kind, fault))
    try:
        parse_scenario(text)
    except ScenarioError as exc:
        errors = exc.errors
    else:
        raise AssertionError(f"{path} was not rejected")
    assert len(errors) == 1 and errors[0].startswith(f"{path}: "), errors
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert run(["reliability", str(doc)]) == (1, "", f"error: {errors[0]}\n")
