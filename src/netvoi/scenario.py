"""Scenario documents: JSON schema, validation, and model assembly.

A scenario bundles everything one analysis needs: the component list, a
structure encoding, the dependence model, inspection accuracy, costs, and
the loss envelope for system-level ranking. Parsing validates the whole
document and reports every problem with its field path.

Structure formulas follow this grammar::

    expr      = composite | component_id ;
    composite = ( "series" | "parallel" ) "(" expr { "," expr } ")" ;

Component ids are identifiers ([A-Za-z_][A-Za-z0-9_]*); each must appear
exactly once in the formula. Truth tables are 0/1 strings of length 2^N
whose k-th character is the system state for mask k (bit i of the mask is
component i, 1 = working). Graph payloads list edges between node labels;
labels that are neither components nor the terminals are junctions that
always conduct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .distributions import (CommonCauseGroups, Explicit, Group, Independent,
                            JointDistribution)
from .envelopes import (BinaryActionLoss, GlobalAction, LossEnvelope,
                        PiecewiseLinearLoss, QuadraticLoss)
from .errors import NetvoiError, ScenarioError
from .inference import InspectionModel
from .local_metrics import LocalCostModel
from .model import (DEFAULT_COMPONENT_CAP, ComponentRef, FormulaTree, Network,
                    ParallelNode, SeriesNode, STGraph, TruthTable, _collect_indices)

SCHEMA_VERSION = "1"

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED_IDS = {"series", "parallel"}


@dataclass(frozen=True)
class ComponentSpec:
    id: str
    name: str
    failure_probability: float | None = None


@dataclass(frozen=True)
class GroupSpec:
    members: tuple[str, ...]
    p: float
    rho: float


@dataclass(frozen=True)
class GraphSpec:
    edges: tuple[tuple[str, str], ...]
    source: str
    sink: str
    directed: bool


@dataclass(frozen=True)
class ActionSpec:
    cost: float
    residual_risk: float


@dataclass(frozen=True)
class ScenarioDocument:
    components: tuple[ComponentSpec, ...]
    structure_kind: str
    formula: str | None
    graph: GraphSpec | None
    truth_table: str | None
    dependence_kind: str
    explicit_weights: tuple[float, ...] | None
    groups: tuple[GroupSpec, ...] | None
    eps_fa: object
    eps_fs: object
    c_fail: float
    c_repair: tuple[float, ...]
    envelope: str | None
    global_actions: tuple[ActionSpec, ...] | None
    schema_version: str = SCHEMA_VERSION
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def build_network(self, cap: int = DEFAULT_COMPONENT_CAP) -> Network:
        ids = self.component_ids
        if self.structure_kind == "formula":
            root = _parse_formula(self.formula, ids)
            structure = FormulaTree(root)
        elif self.structure_kind == "st_graph":
            structure = STGraph(
                component_nodes=ids,
                edges=self.graph.edges,
                source=self.graph.source,
                sink=self.graph.sink,
                directed=self.graph.directed,
            )
        else:
            structure = TruthTable(self.truth_table)
        return Network(structure, names=self.component_names, cap=cap)

    def build_distribution(self) -> JointDistribution:
        if self.dependence_kind == "independent":
            return Independent([c.failure_probability for c in self.components])
        if self.dependence_kind == "explicit":
            return Explicit(self.explicit_weights)
        index = {c: i for i, c in enumerate(self.component_ids)}
        groups = [Group([index[m] for m in g.members], g.p, g.rho) for g in self.groups]
        return CommonCauseGroups(groups, n_components=self.n_components)

    def build_inspection(self) -> InspectionModel:
        return InspectionModel(self.eps_fa, self.eps_fs)

    def build_costs(self) -> LocalCostModel:
        return LocalCostModel(self.c_fail, self.c_repair)

    def build_envelope(self) -> LossEnvelope:
        if self.envelope == "quadratic":
            return QuadraticLoss()
        if self.envelope == "binary":
            return BinaryActionLoss(min(self.c_repair), self.c_fail)
        actions = [GlobalAction(a.cost, a.residual_risk) for a in self.global_actions]
        return PiecewiseLinearLoss.from_actions(actions, self.c_fail)

    def to_json_obj(self) -> dict:
        components = []
        for c in self.components:
            entry: dict = {"id": c.id}
            if c.name != c.id:
                entry["name"] = c.name
            if c.failure_probability is not None:
                entry["failure_probability"] = c.failure_probability
            components.append(entry)
        if self.structure_kind == "formula":
            structure: dict = {"formula": self.formula}
        elif self.structure_kind == "st_graph":
            structure = {"st_graph": {
                "edges": [list(e) for e in self.graph.edges],
                "source": self.graph.source,
                "sink": self.graph.sink,
                "directed": self.graph.directed,
            }}
        else:
            structure = {"truth_table": self.truth_table}
        if self.dependence_kind == "independent":
            dependence: dict = {"kind": "independent"}
        elif self.dependence_kind == "explicit":
            dependence = {"kind": "explicit", "weights": list(self.explicit_weights)}
        else:
            dependence = {"kind": "groups", "groups": [
                {"members": list(g.members), "p": g.p, "rho": g.rho}
                for g in self.groups
            ]}
        obj = {
            "schema_version": self.schema_version,
            "components": components,
            "structure": structure,
            "dependence": dependence,
            "inspection": {
                "eps_fa": list(self.eps_fa) if isinstance(self.eps_fa, tuple) else self.eps_fa,
                "eps_fs": list(self.eps_fs) if isinstance(self.eps_fs, tuple) else self.eps_fs,
            },
            "costs": {"c_fail": self.c_fail, "c_repair": list(self.c_repair)},
        }
        if self.envelope is not None:
            obj["envelope"] = self.envelope
        else:
            obj["global_actions"] = [
                {"cost": a.cost, "residual_risk": a.residual_risk}
                for a in self.global_actions
            ]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


class _Collector:
    def __init__(self):
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def warn(self, path: str, message: str) -> None:
        self.warnings.append(f"{path}: {message}")


def _get_number(obj, key, path, col, *, lo=None, hi=None, required=True):
    if key not in obj:
        if required:
            col.error(f"{path}.{key}", "missing")
        return None
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        col.error(f"{path}.{key}", f"expected a number, got {value!r}")
        return None
    value = float(value)
    if lo is not None and value < lo:
        col.error(f"{path}.{key}", f"{value} is below {lo}")
        return None
    if hi is not None and value >= hi:
        col.error(f"{path}.{key}", f"{value} is not below {hi}")
        return None
    return value


def _parse_components(raw, col):
    items = raw.get("components")
    if not isinstance(items, list) or not items:
        col.error("components", "must be a non-empty list")
        return ()
    specs = []
    seen = set()
    for k, item in enumerate(items):
        path = f"components[{k}]"
        if not isinstance(item, dict):
            col.error(path, "must be an object")
            continue
        cid = item.get("id")
        if not isinstance(cid, str) or not _ID_RE.match(cid):
            col.error(f"{path}.id", f"{cid!r} is not a valid identifier")
            continue
        if cid in _RESERVED_IDS:
            col.error(f"{path}.id", f"{cid!r} is a reserved word")
            continue
        if cid in seen:
            col.error(f"{path}.id", f"duplicate id {cid!r}")
            continue
        seen.add(cid)
        name = item.get("name", cid)
        if not isinstance(name, str) or not name:
            col.error(f"{path}.name", "must be a non-empty string")
            name = cid
        p = None
        if "failure_probability" in item:
            p = _get_number(item, "failure_probability", path, col, lo=0.0)
            if p is not None and p > 1.0:
                col.error(f"{path}.failure_probability", f"{p} exceeds 1")
                p = None
        specs.append(ComponentSpec(id=cid, name=name, failure_probability=p))
    return tuple(specs)


def _parse_structure(raw, ids, col):
    structure = raw.get("structure")
    if not isinstance(structure, dict):
        col.error("structure", "must be an object")
        return None, None, None, None
    variants = [k for k in ("formula", "st_graph", "truth_table") if k in structure]
    if len(variants) != 1:
        col.error("structure", f"exactly one of formula/st_graph/truth_table required, got {variants}")
        return None, None, None, None
    kind = variants[0]
    if kind == "formula":
        text = structure["formula"]
        if not isinstance(text, str):
            col.error("structure.formula", "must be a string")
            return None, None, None, None
        try:
            root = _parse_formula(text, ids)
        except ValueError as exc:
            col.error("structure.formula", str(exc))
            return None, None, None, None
        return "formula", _format_formula(root, ids), None, None
    if kind == "st_graph":
        payload = structure["st_graph"]
        if not isinstance(payload, dict):
            col.error("structure.st_graph", "must be an object")
            return None, None, None, None
        edges_raw = payload.get("edges")
        edges = []
        if not isinstance(edges_raw, list) or not edges_raw:
            col.error("structure.st_graph.edges", "must be a non-empty list")
        else:
            for k, edge in enumerate(edges_raw):
                if (not isinstance(edge, list) or len(edge) != 2
                        or not all(isinstance(x, str) for x in edge)):
                    col.error(f"structure.st_graph.edges[{k}]",
                              "must be a pair of node labels")
                    continue
                edges.append((edge[0], edge[1]))
        source = payload.get("source", "o")
        sink = payload.get("sink", "s")
        directed = payload.get("directed", False)
        if not isinstance(source, str) or not isinstance(sink, str):
            col.error("structure.st_graph", "source and sink must be strings")
            return None, None, None, None
        if not isinstance(directed, bool):
            col.error("structure.st_graph.directed", "must be a boolean")
            directed = False
        spec = GraphSpec(edges=tuple(edges), source=source, sink=sink, directed=directed)
        try:
            STGraph(ids, spec.edges, source=spec.source, sink=spec.sink,
                    directed=spec.directed)
        except ValueError as exc:
            col.error("structure.st_graph", str(exc))
            return None, None, None, None
        return "st_graph", None, spec, None
    text = structure["truth_table"]
    if not isinstance(text, str) or set(text) - {"0", "1"}:
        col.error("structure.truth_table", "must be a string of 0s and 1s")
        return None, None, None, None
    if len(text) != 1 << len(ids):
        col.error("structure.truth_table",
                  f"length {len(text)} does not match 2^{len(ids)} states")
        return None, None, None, None
    try:
        TruthTable(text)
    except NetvoiError as exc:
        col.error("structure.truth_table", str(exc))
        return None, None, None, None
    return "truth_table", None, None, text


def _parse_dependence(raw, components, col):
    dep = raw.get("dependence")
    if not isinstance(dep, dict):
        col.error("dependence", "must be an object")
        return None, None, None
    kind = dep.get("kind")
    if kind not in ("independent", "explicit", "groups"):
        col.error("dependence.kind", f"unknown kind {kind!r}")
        return None, None, None
    ids = [c.id for c in components]
    if kind == "independent":
        for k, c in enumerate(components):
            if c.failure_probability is None:
                col.error(f"components[{k}].failure_probability",
                          "required for independent dependence")
        return kind, None, None
    for k, c in enumerate(components):
        if c.failure_probability is not None:
            col.error(f"components[{k}].failure_probability",
                      "only allowed with independent dependence")
    if kind == "explicit":
        weights = dep.get("weights")
        if (not isinstance(weights, list)
                or len(weights) != 1 << len(ids)
                or not all(isinstance(w, (int, float)) and not isinstance(w, bool)
                           for w in weights)):
            col.error("dependence.weights",
                      f"must be a list of 2^{len(ids)} numbers")
            return None, None, None
        try:
            Explicit(weights)
        except ValueError as exc:
            col.error("dependence.weights", str(exc))
            return None, None, None
        return kind, tuple(float(w) for w in weights), None
    groups_raw = dep.get("groups")
    if not isinstance(groups_raw, list) or not groups_raw:
        col.error("dependence.groups", "must be a non-empty list")
        return None, None, None
    specs = []
    covered: list[str] = []
    for k, g in enumerate(groups_raw):
        path = f"dependence.groups[{k}]"
        if not isinstance(g, dict):
            col.error(path, "must be an object")
            continue
        members = g.get("members")
        if (not isinstance(members, list) or not members
                or not all(isinstance(m, str) for m in members)):
            col.error(f"{path}.members", "must be a non-empty list of component ids")
            continue
        unknown = [m for m in members if m not in ids]
        if unknown:
            col.error(f"{path}.members", f"unknown component ids {unknown}")
            continue
        p = _get_number(g, "p", path, col, lo=0.0)
        if p is not None and p > 1.0:
            col.error(f"{path}.p", f"{p} exceeds 1")
            p = None
        rho = _get_number(g, "rho", path, col, lo=0.0, hi=1.0)
        if p is None or rho is None:
            continue
        covered.extend(members)
        specs.append(GroupSpec(members=tuple(members), p=p, rho=rho))
    if sorted(covered) != sorted(ids):
        col.error("dependence.groups", "groups must partition the component list")
        return None, None, None
    return kind, None, tuple(specs)


def _parse_rates(raw, n, col):
    insp = raw.get("inspection")
    if not isinstance(insp, dict):
        col.error("inspection", "must be an object with eps_fa and eps_fs")
        return 0.0, 0.0
    out = []
    for key in ("eps_fa", "eps_fs"):
        value = insp.get(key)
        if isinstance(value, list):
            if len(value) != n:
                col.error(f"inspection.{key}", f"list must have {n} entries")
                out.append(0.0)
                continue
            bad = [v for v in value if isinstance(v, bool)
                   or not isinstance(v, (int, float)) or not 0.0 <= v < 0.5]
            if bad:
                col.error(f"inspection.{key}", f"entries must be numbers in [0, 0.5): {bad}")
                out.append(0.0)
                continue
            rates = tuple(float(v) for v in value)
            if len(set(rates)) > 1:
                col.warn(f"inspection.{key}",
                         "non-uniform inspection accuracy: series/parallel "
                         "closed-form rules no longer apply")
            out.append(rates)
        else:
            v = _get_number(insp, key, "inspection", col, lo=0.0, hi=0.5)
            out.append(0.0 if v is None else v)
    return out[0], out[1]


def _parse_costs(raw, n, col):
    """(c_fail, c_repair), each None when invalid."""
    costs = raw.get("costs")
    if not isinstance(costs, dict):
        col.error("costs", "must be an object with c_fail and c_repair")
        return None, None
    c_fail = _get_number(costs, "c_fail", "costs", col, lo=0.0)
    if c_fail is not None and c_fail <= 0.0:
        col.error("costs.c_fail", "must be positive")
        c_fail = None
    repair = costs.get("c_repair")
    c_repair = None
    if isinstance(repair, (int, float)) and not isinstance(repair, bool):
        if repair < 0:
            col.error("costs.c_repair", "must be nonnegative")
        else:
            c_repair = (float(repair),) * n
    elif isinstance(repair, list):
        bad = [v for v in repair if isinstance(v, bool)
               or not isinstance(v, (int, float)) or v < 0]
        if len(repair) != n:
            col.error("costs.c_repair", f"list must have {n} entries")
        elif bad:
            col.error("costs.c_repair", f"entries must be nonnegative numbers: {bad}")
        else:
            c_repair = tuple(float(v) for v in repair)
    else:
        col.error("costs.c_repair", "must be a number or a list of numbers")
    return c_fail, c_repair


def _parse_envelope(raw, col):
    has_tag = "envelope" in raw
    has_actions = "global_actions" in raw
    if has_tag == has_actions:
        col.error("envelope", "exactly one of envelope/global_actions required")
        return None, None
    if has_tag:
        tag = raw["envelope"]
        if tag not in ("quadratic", "binary"):
            col.error("envelope", f"unknown envelope {tag!r}")
            return None, None
        return tag, None
    actions_raw = raw["global_actions"]
    if not isinstance(actions_raw, list) or not actions_raw:
        col.error("global_actions", "must be a non-empty list")
        return None, None
    specs = []
    for k, a in enumerate(actions_raw):
        path = f"global_actions[{k}]"
        if not isinstance(a, dict):
            col.error(path, "must be an object")
            continue
        cost = _get_number(a, "cost", path, col, lo=0.0)
        risk = _get_number(a, "residual_risk", path, col, lo=0.0)
        if risk is not None and risk > 1.0:
            col.error(f"{path}.residual_risk", f"{risk} exceeds 1")
            risk = None
        if cost is None or risk is None:
            continue
        specs.append(ActionSpec(cost=cost, residual_risk=risk))
    if not specs:
        return None, None
    return None, tuple(specs)


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario document from JSON text.

    Raises :class:`ScenarioError` carrying every validation problem found,
    each prefixed with the field path it concerns.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(["document: must be a JSON object"])
    col = _Collector()

    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        col.error("schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")

    components = _parse_components(raw, col)
    if not components:
        # Everything downstream needs a usable component list.
        raise ScenarioError(col.errors or ["components: invalid"])
    ids = tuple(c.id for c in components)

    kind, formula, graph, table = _parse_structure(raw, ids, col)
    dep_kind, weights, groups = _parse_dependence(raw, components, col)
    eps_fa, eps_fs = _parse_rates(raw, len(ids), col)
    c_fail, c_repair = _parse_costs(raw, len(ids), col)
    envelope, actions = _parse_envelope(raw, col)
    if envelope == "binary" and None not in (c_fail, c_repair):
        peak = min(c_repair) / c_fail
        if not 0.0 < peak < 1.0:
            col.error("costs.c_repair", "the binary envelope needs min(c_repair)/c_fail "
                      f"strictly inside (0, 1), not {peak}")

    if col.errors:
        raise ScenarioError(col.errors)
    return ScenarioDocument(
        components=components,
        structure_kind=kind,
        formula=formula,
        graph=graph,
        truth_table=table,
        dependence_kind=dep_kind,
        explicit_weights=weights,
        groups=groups,
        eps_fa=eps_fa,
        eps_fs=eps_fs,
        c_fail=c_fail,
        c_repair=c_repair,
        envelope=envelope,
        global_actions=actions,
        warnings=tuple(col.warnings),
    )


def parse_scenario_file(path) -> ScenarioDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\(|\)|,)")


def _tokenize_formula(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ValueError(f"unexpected character {text[pos:].strip()[0]!r} "
                                 f"at position {pos}")
            break
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    return tokens


def _parse_formula(text: str, ids):
    """Parse a series/parallel expression over the given component ids."""
    index = {cid: i for i, cid in enumerate(ids)}
    tokens = _tokenize_formula(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of formula")
        token, where = tokens[pos]
        if expected is not None and token != expected:
            raise ValueError(f"expected {expected!r} at position {where}, got {token!r}")
        pos += 1
        return token, where

    def expr():
        token, where = take()
        if token in ("series", "parallel"):
            take("(")
            parts = [expr()]
            while peek() == ",":
                take(",")
                parts.append(expr())
            take(")")
            node_type = SeriesNode if token == "series" else ParallelNode
            return node_type(tuple(parts))
        if token in ("(", ")", ","):
            raise ValueError(f"unexpected {token!r} at position {where}")
        if token not in index:
            raise ValueError(f"unknown component id {token!r} at position {where}")
        return ComponentRef(index[token])

    root = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input after formula: {tokens[pos][0]!r}")
    used: list[int] = []
    _collect_indices(root, used)
    missing = [ids[i] for i in range(len(ids)) if i not in set(used)]
    duplicates = sorted({ids[i] for i in used if used.count(i) > 1})
    if duplicates:
        raise ValueError(f"components referenced more than once: {duplicates}")
    if missing:
        raise ValueError(f"components never referenced: {missing}")
    return root


def _format_formula(node, ids) -> str:
    if isinstance(node, ComponentRef):
        return ids[node.index]
    tag = "series" if isinstance(node, SeriesNode) else "parallel"
    return f"{tag}({', '.join(_format_formula(p, ids) for p in node.parts)})"
