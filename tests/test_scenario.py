"""Scenario parsing, validation diagnostics, and round-trip stability."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from netvoi import (CommonCauseGroups, Explicit, Independent, ScenarioError,
                    parse_scenario, parse_scenario_file, system_failure_prob, voi_local)
from netvoi import ScenarioDocument, distributions
from netvoi.cli import run_command

from conftest import scenario_path


def test_three_branch_fixture_parses_and_builds():
    doc = parse_scenario_file(scenario_path("three_branch.json"))
    assert doc.n_components == 6
    assert doc.structure_kind == "formula"
    assert doc.formula == "parallel(series(c1, c2), series(c3, c4), series(c5, c6))"
    net = doc.build_network()
    dist = doc.build_distribution()
    assert isinstance(dist, Independent)
    assert system_failure_prob(net, dist) == pytest.approx(0.19872)
    assert doc.build_costs().c_repair == (0.1,) * 6
    assert doc.build_envelope().value(0.5) == pytest.approx(0.25)


def test_substation_fixture_groups():
    doc = parse_scenario_file(scenario_path("substation.json"))
    assert doc.n_components == 12
    dist = doc.build_distribution()
    assert isinstance(dist, CommonCauseGroups)
    assert dist.marginal_failure(0) == pytest.approx(9.53e-3)
    assert dist.marginal_failure(5) == pytest.approx(2.32e-3)
    net = doc.build_network()
    # with every component up the station must conduct
    assert net.evaluate((1 << 12) - 1) == 1


@pytest.mark.parametrize("name", [
    "three_branch.json", "three_branch_alt_costs.json", "crossed_pair.json",
    "layered16.json", "substation.json", "series_parallel3.json",
    "parallel_series3.json",
])
def test_round_trip_all_fixtures(name):
    doc = parse_scenario_file(scenario_path(name))
    again = parse_scenario(doc.to_json())
    assert again == doc
    assert again.to_json() == doc.to_json()


def _base_doc():
    return {
        "schema_version": "1",
        "components": [
            {"id": "a", "failure_probability": 0.1},
            {"id": "b", "failure_probability": 0.2},
        ],
        "structure": {"formula": "series(a, b)"},
        "dependence": {"kind": "independent"},
        "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
        "costs": {"c_fail": 1.0, "c_repair": 0.1},
        "envelope": "quadratic",
    }


def errors_of(obj):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(obj))
    return err.value.errors


def test_syntax_error_reports_position():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("{\n  broken")
    assert "line 2" in err.value.errors[0]


def test_empty_component_list():
    obj = _base_doc()
    obj["components"] = []
    assert any(e.startswith("components") for e in errors_of(obj))


def test_unknown_component_in_formula():
    obj = _base_doc()
    obj["structure"] = {"formula": "series(a, zz)"}
    assert any("structure.formula" in e and "zz" in e for e in errors_of(obj))


def test_component_missing_from_formula():
    obj = _base_doc()
    obj["structure"] = {"formula": "series(a, a)"}
    errors = errors_of(obj)
    assert any("more than once" in e for e in errors)


def test_multiple_structure_variants_rejected():
    obj = _base_doc()
    obj["structure"] = {"formula": "series(a, b)", "truth_table": "0001"}
    assert any("exactly one" in e for e in errors_of(obj))


def test_non_monotone_truth_table_rejected():
    obj = _base_doc()
    obj["structure"] = {"truth_table": "0100"}
    assert any("structure.truth_table" in e for e in errors_of(obj))


def test_truth_table_variant_accepted():
    obj = _base_doc()
    obj["structure"] = {"truth_table": "0001"}
    doc = parse_scenario(json.dumps(obj))
    assert doc.build_network().is_pure_series()


def test_missing_probability_for_independent():
    obj = _base_doc()
    del obj["components"][1]["failure_probability"]
    assert any("components[1].failure_probability" in e for e in errors_of(obj))


def test_explicit_weight_count_checked():
    obj = _base_doc()
    for c in obj["components"]:
        del c["failure_probability"]
    obj["dependence"] = {"kind": "explicit", "weights": [0.5, 0.5]}
    assert any("dependence.weights" in e for e in errors_of(obj))
    obj["dependence"] = {"kind": "explicit", "weights": [0.1, 0.2, 0.3, 0.4]}
    doc = parse_scenario(json.dumps(obj))
    assert isinstance(doc.build_distribution(), Explicit)


def test_groups_must_partition():
    obj = _base_doc()
    for c in obj["components"]:
        del c["failure_probability"]
    obj["dependence"] = {"kind": "groups", "groups": [
        {"members": ["a"], "p": 0.1, "rho": 0.0},
    ]}
    assert any("partition" in e for e in errors_of(obj))


def test_group_rho_range():
    obj = _base_doc()
    for c in obj["components"]:
        del c["failure_probability"]
    obj["dependence"] = {"kind": "groups", "groups": [
        {"members": ["a", "b"], "p": 0.1, "rho": 1.0},
    ]}
    assert any("rho" in e for e in errors_of(obj))


def test_envelope_exactly_one_required():
    obj = _base_doc()
    del obj["envelope"]
    assert any("envelope" in e for e in errors_of(obj))
    obj["envelope"] = "quadratic"
    obj["global_actions"] = [{"cost": 0.0, "residual_risk": 1.0}]
    assert any("envelope" in e for e in errors_of(obj))


def test_global_actions_envelope_builds():
    obj = _base_doc()
    del obj["envelope"]
    obj["global_actions"] = [{"cost": 0.0, "residual_risk": 1.0},
                             {"cost": 0.3, "residual_risk": 0.0}]
    doc = parse_scenario(json.dumps(obj))
    env = doc.build_envelope()
    assert env.value(1.0) == pytest.approx(0.3)
    rt = parse_scenario(doc.to_json())
    assert rt == doc


def test_binary_envelope_needs_a_cost_ratio_inside_0_1():
    with open(scenario_path("series_parallel3.json"), encoding="utf-8") as handle:
        obj = json.load(handle)
    obj["envelope"] = "binary"
    for c_repair in (0.0, 1.0, 2.5, [0.3, 0.0, 0.4], [1.5, 1.0, 2.0]):
        obj["costs"] = {"c_fail": 1.0, "c_repair": c_repair}
        errors = errors_of(obj)
        assert len(errors) == 1 and errors[0].startswith("costs.c_repair: "), c_repair
    obj["costs"] = {"c_fail": 1.0, "c_repair": [0.3, 0.05, 1.0]}
    assert parse_scenario(json.dumps(obj)).build_envelope().peak == 0.05
    # an invalid cost is reported once, not again as a bad ratio
    obj["costs"] = {"c_fail": 0.0, "c_repair": 0.0}
    assert errors_of(obj) == ["costs.c_fail: must be positive"]


def test_bad_schema_version():
    obj = _base_doc()
    obj["schema_version"] = "2"
    assert any("schema_version" in e for e in errors_of(obj))


def test_non_uniform_rates_flagged():
    obj = _base_doc()
    obj["inspection"] = {"eps_fa": [0.0, 0.1], "eps_fs": 0.0}
    doc = parse_scenario(json.dumps(obj))
    assert doc.warnings
    assert not doc.build_inspection().uniform


def test_multiple_errors_reported_together():
    obj = _base_doc()
    obj["structure"] = {"formula": "series(a, zz)"}
    obj["costs"] = {"c_fail": -1.0, "c_repair": 0.1}
    obj["envelope"] = "banana"
    errors = errors_of(obj)
    assert len(errors) >= 3


def _groups_doc():
    obj = _base_doc()
    for c in obj["components"]:
        del c["failure_probability"]
    obj["dependence"] = {"kind": "groups", "groups": [
        {"members": ["a"], "p": 0.1, "rho": 0.0}, {"members": ["b"], "p": 0.2, "rho": 0.3}]}
    return obj


def _explicit_doc():
    obj = _groups_doc()
    obj["dependence"] = {"kind": "explicit", "weights": [0.1, 0.2, 0.3, 0.4]}
    return obj


def _actions_doc():
    obj = _base_doc()
    del obj["envelope"]
    obj["global_actions"] = [{"cost": 0.0, "residual_risk": 1.0},
                             {"cost": 0.3, "residual_risk": 0.0}]
    return obj


def _lists_doc():
    obj = _base_doc()
    obj["inspection"] = {"eps_fa": [0.0, 0.1], "eps_fs": [0.1, 0.0]}
    obj["costs"]["c_repair"] = [0.1, 0.2]
    return obj


# a document and the keys leading to one of its numeric fields
NUMERIC_FIELDS = [
    (_base_doc, ("components", 1, "failure_probability")),
    (_explicit_doc, ("dependence", "weights", 2)),
    (_groups_doc, ("dependence", "groups", 1, "p")),
    (_groups_doc, ("dependence", "groups", 1, "rho")),
    (_base_doc, ("inspection", "eps_fa")),
    (_base_doc, ("inspection", "eps_fs")),
    (_lists_doc, ("inspection", "eps_fa", 1)),
    (_lists_doc, ("inspection", "eps_fs", 0)),
    (_base_doc, ("costs", "c_fail")),
    (_base_doc, ("costs", "c_repair")),
    (_lists_doc, ("costs", "c_repair", 1)),
    (_actions_doc, ("global_actions", 1, "cost")),
    (_actions_doc, ("global_actions", 0, "residual_risk")),
]


def field_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def with_literal(obj, keys, literal):
    """JSON text of ``obj`` with ``literal`` written at the field that ``keys`` lead to."""
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "@literal@"
    return json.dumps(obj).replace('"@literal@"', literal)


@pytest.mark.parametrize("make, keys", NUMERIC_FIELDS)
def test_non_finite_number_is_one_error_at_its_path(make, keys, tmp_path, capsys):
    assert parse_scenario(with_literal(make(), keys, "0.3"))  # the field is valid as 0.3
    for literal, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
                           ("1e400", "inf"), ("-1e400", "-inf"), ("1" + "0" * 5000, "inf")):
        text = with_literal(make(), keys, literal)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        message = f"{field_path(keys)}: expected a finite number, got {shown}"
        if keys[1] == "weights":  # the table is checked as a whole, by Explicit
            message = "dependence.weights: weights must be finite and nonnegative"
        assert err.value.errors == [message], literal
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        assert run_command(["reliability", str(doc)]) == 1, literal
        assert capsys.readouterr().err == f"error: {message}\n"


def test_invalid_value_is_reported_once():
    obj = _base_doc()
    obj["components"][0]["failure_probability"] = 1.5
    assert errors_of(obj) == ["components[0].failure_probability: must be in [0, 1]"]
    obj = _groups_doc()
    obj["dependence"]["groups"][0]["rho"] = 1.0
    assert errors_of(obj) == ["dependence.groups[0].rho: must be in [0, 1)"]
    obj["dependence"]["groups"][0]["members"] = "a"
    assert errors_of(obj) == ["dependence.groups[0].members: "
                              "must be a non-empty list of component ids"]
    obj = _explicit_doc()
    obj["components"][0]["failure_probability"] = 1.5
    assert errors_of(obj) == ["components[0].failure_probability: "
                              "only allowed with independent dependence"]
    obj = _explicit_doc()
    obj["dependence"]["weights"][3] = -0.4
    assert errors_of(obj) == ["dependence.weights: weights must be finite and nonnegative"]
    obj["dependence"]["weights"][3] = "0.4"
    assert errors_of(obj) == ["dependence.weights: must be a list of 2^2 numbers"]
    # b sits only on the malformed edge: the graph is not built without it
    obj = _base_doc()
    obj["structure"] = {"st_graph": {"edges": [["o", "a"], ["a", "s"], ["b"]]}}
    assert errors_of(obj) == ["structure.st_graph.edges[2]: must be a pair of node labels"]


def _edited(make, path, value):
    """``make()`` with ``value`` at the field ``path`` leads to (appended past a list's end)."""
    obj = make()
    target = obj
    for key in path[:-1]:
        target = target[key]
    if isinstance(target, list) and path[-1] == len(target):
        target.append(value)
    else:
        target[path[-1]] = value
    return obj


_EDGES = [["o", "a"], ["a", "b"], ["b", "s"]]
# one malformed field per document, and the one error it gives
MALFORMED = [
    (_edited(_base_doc, ("components", 2), 7), "components[2]: must be an object"),
    (_edited(_base_doc, ("components", 2), {"id": "9x", "failure_probability": 0.1}),
     "components[2].id: '9x' is not a valid identifier"),
    (_edited(_base_doc, ("components", 2), {"id": "series", "failure_probability": 0.1}),
     "components[2].id: 'series' is a reserved word"),
    (_edited(_base_doc, ("components", 2), {"id": "a", "failure_probability": 0.1}),
     "components[2].id: duplicate id 'a'"),
    (_edited(_base_doc, ("components", 1, "name"), ""),
     "components[1].name: must be a non-empty string"),
    (_edited(_base_doc, ("structure",), "series(a, b)"), "structure: must be an object"),
    (_edited(_base_doc, ("structure",), {"formula": 3}), "structure.formula: must be a string"),
    (_edited(_base_doc, ("structure",), {"st_graph": _EDGES}),
     "structure.st_graph: must be an object"),
    (_edited(_base_doc, ("structure",), {"st_graph": {"edges": []}}),
     "structure.st_graph.edges: must be a non-empty list"),
    (_edited(_base_doc, ("structure",), {"st_graph": {"edges": _EDGES, "sink": 5}}),
     "structure.st_graph: source and sink must be strings"),
    (_edited(_base_doc, ("dependence",), "independent"), "dependence: must be an object"),
    (_edited(_base_doc, ("dependence", "kind"), "copula"),
     "dependence.kind: unknown kind 'copula'"),
    (_edited(_groups_doc, ("dependence", "groups"), []),
     "dependence.groups: must be a non-empty list"),
    (_edited(_groups_doc, ("dependence", "groups", 1), "b"),
     "dependence.groups[1]: must be an object"),
    (_edited(_groups_doc, ("dependence", "groups", 0, "members"), ["a", "zz"]),
     "dependence.groups[0].members: unknown component ids ['zz']"),
    (_edited(_base_doc, ("inspection",), 0.1),
     "inspection: must be an object with eps_fa and eps_fs"),
    (_edited(_base_doc, ("costs",), 1.0), "costs: must be an object with c_fail and c_repair"),
    (_edited(_base_doc, ("costs",), {"c_fail": 1e308, "c_repair": [1e308, 1e308]}),
     "costs.c_repair: c_fail plus the sum of c_repair must be finite"),
    (_edited(_actions_doc, ("global_actions",), []), "global_actions: must be a non-empty list"),
    (_edited(_actions_doc, ("global_actions", 1), 3), "global_actions[1]: must be an object"),
    ([_base_doc()], "document: must be a JSON object"),
    (_edited(_base_doc, ("structure", "formula"), "series(a; b)"),
     "structure.formula: unexpected character ';' at position 8"),
    (_edited(_base_doc, ("structure", "formula"), "series a, b"),
     "structure.formula: expected '(' at position 7, got 'a'"),
]


@pytest.mark.parametrize("obj, message", MALFORMED, ids=[m.split(":")[0] for _, m in MALFORMED])
def test_malformed_field_is_one_error_at_its_path(obj, message, tmp_path, capsys):
    assert errors_of(obj) == [message]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(obj))
    assert run_command(["reliability", str(doc)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_duplicate_component_names_rejected():
    obj = _base_doc()
    obj["components"][1]["name"] = "a"
    assert errors_of(obj) == ["components[1].name: duplicate name 'a'"]
    obj["components"][0]["name"] = "pump"
    assert parse_scenario(json.dumps(obj)).build_network().names == ("pump", "a")


def test_repeated_group_member_is_one_error_without_a_table(monkeypatch):
    # 40 repeats of one member would be a 2^40 table: the overlap is found first
    monkeypatch.setattr(distributions, "_shared_cause_table", _no_table)
    obj = _groups_doc()
    obj["dependence"]["groups"][0]["members"] = ["a"] * 40
    assert errors_of(obj) == ["dependence.groups: groups overlap"]


def _no_table(group):
    raise AssertionError(f"built the table of a {len(group.members)}-member group")


def test_built_structure_and_belief_are_not_constructor_fields():
    doc = parse_scenario_file(scenario_path("three_branch.json"))
    params = inspect.signature(ScenarioDocument).parameters
    assert not {"structure", "belief", "built"} & set(params)
    assert {"structure", "belief"} <= set(vars(doc))  # parsing built them once
    assert "structure=" not in repr(doc) and "belief=" not in repr(doc)
    # a copy with other spec fields builds its own network, never the original's
    formula = "series(c1, c2, c3, c4, c5, c6)"
    copy = dataclasses.replace(doc, formula=formula)
    assert copy != doc and dataclasses.replace(doc) == doc
    assert np.array_equal(copy.build_network().truth_table(),
                          parse_scenario(doc.to_json().replace(doc.formula, formula))
                          .build_network().truth_table())
    assert not np.array_equal(copy.structure.truth_table(), doc.structure.truth_table())
    with pytest.raises(ScenarioError, match="never referenced"):
        dataclasses.replace(doc, formula="parallel(c1)").build_network()


def local_report(doc):
    return voi_local(doc.build_network(), doc.build_distribution(), doc.build_inspection(),
                     doc.build_costs())


@pytest.mark.parametrize("name", ["three_branch.json", "substation.json"])
def test_replaced_costs_rank_like_the_parsed_document(name):
    doc = parse_scenario_file(scenario_path(name))
    obj = doc.to_json_obj()
    obj["costs"]["c_fail"] = 2.0
    copy, parsed = dataclasses.replace(doc, c_fail=2.0), parse_scenario(json.dumps(obj))
    assert copy == parsed
    assert local_report(copy) == local_report(parsed) != local_report(doc)
