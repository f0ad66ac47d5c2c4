"""Scenario documents: JSON schema, validation, and model assembly.

A scenario bundles everything one analysis needs: the component list, a
structure encoding, the dependence model, inspection accuracy, costs, and
the loss envelope for system-level ranking. Parsing validates the whole
document, reports every problem once with its field path, and builds the
structure and the belief that the document then keeps.

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

import functools
import json
import math
import re
from dataclasses import dataclass, field

from .distributions import (CommonCauseGroups, Explicit, Group, Independent,
                            JointDistribution)
from .envelopes import (BinaryActionLoss, GlobalAction, LossEnvelope,
                        PiecewiseLinearLoss, QuadraticLoss)
from .errors import CORRELATION, NONNEGATIVE, POSITIVE, PROBABILITY, RATE, ScenarioError
from .inference import InspectionModel
from .local_metrics import LocalCostModel
from .model import (DEFAULT_COMPONENT_CAP, ComponentRef, FormulaTree, Network,
                    ParallelNode, SeriesNode, STGraph, TruthTable)

SCHEMA_VERSION = "1"

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED_IDS = {"series", "parallel"}
# Deepest nesting of composites in a formula. The recursive-descent parser takes one
# frame a level, and the frozen nodes' recursive repr and == about four (hash two), so
# 200 levels stay inside Python's 1000 frames; evaluation keeps its own stack.
_MAX_FORMULA_DEPTH = 200


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
class ScenarioDocument:
    """A validated scenario, and the structure and belief built from its fields."""

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
    global_actions: tuple[GlobalAction, ...] | None
    schema_version: str = SCHEMA_VERSION
    warnings: tuple[str, ...] = field(default=(), compare=False)
    # built from the document's own fields; parse_scenario sets both as it validates
    structure = functools.cached_property(lambda self: parse_scenario(self.to_json()).structure)
    belief = functools.cached_property(lambda self: parse_scenario(self.to_json()).belief)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def component_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.components)

    def build_network(self, cap: int = DEFAULT_COMPONENT_CAP) -> Network:
        return Network(self.structure, names=self.component_names, cap=cap)

    def build_distribution(self) -> JointDistribution:
        return self.belief

    def build_inspection(self) -> InspectionModel:
        return InspectionModel(self.eps_fa, self.eps_fs)

    def build_costs(self) -> LocalCostModel:
        return LocalCostModel(self.c_fail, self.c_repair)

    def build_envelope(self) -> LossEnvelope:
        if self.envelope == "quadratic":
            return QuadraticLoss()
        if self.envelope == "binary":
            return BinaryActionLoss(min(self.c_repair), self.c_fail)
        return PiecewiseLinearLoss.from_actions(self.global_actions, self.c_fail)

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


def _number(value, path, col, domain):
    """``value`` as a finite float in ``domain``; else None, with one error at ``path``.

    Documents are read with every number as a float, so NaN and the
    infinities are rejected here, whether written as JSON literals or as
    literals past the float range, such as 1e400 or a 400-digit integer.
    """
    if value is None:
        message = "missing"
    elif not isinstance(value, float):
        message = f"expected a number, got {value!r}"
    elif not math.isfinite(value):
        message = f"expected a finite number, got {value}"
    elif not domain.test(value):
        message = f"must be {domain.words}"
    else:
        return value
    col.error(path, message)
    return None


def _numbers(value, n, path, col, domain):
    """A number, or a list of ``n`` as a tuple, read by ``_number``; None if any is invalid."""
    if not isinstance(value, list):
        return _number(value, path, col, domain)
    if len(value) != n:
        col.error(path, f"list must have {n} entries")
        return None
    out = tuple(_number(v, f"{path}[{k}]", col, domain) for k, v in enumerate(value))
    return None if None in out else out


def _parse_components(raw, dep_kind, col):
    items = raw.get("components")
    if not isinstance(items, list) or not items:
        col.error("components", "must be a non-empty list")
        return ()
    specs = []
    ids, names = set(), set()
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
        if cid in ids:
            col.error(f"{path}.id", f"duplicate id {cid!r}")
            continue
        ids.add(cid)
        name = item.get("name", cid)
        if not isinstance(name, str) or not name:
            col.error(f"{path}.name", "must be a non-empty string")
        elif name in names:
            col.error(f"{path}.name", f"duplicate name {name!r}")
        else:
            names.add(name)
        p = None
        if "failure_probability" not in item:
            if dep_kind == "independent":
                col.error(f"{path}.failure_probability", "required for independent dependence")
        elif dep_kind in ("explicit", "groups"):
            col.error(f"{path}.failure_probability", "only allowed with independent dependence")
        else:
            p = _number(item["failure_probability"], f"{path}.failure_probability", col,
                        PROBABILITY)
        specs.append(ComponentSpec(id=cid, name=name, failure_probability=p))
    return tuple(specs)


def _parse_structure(raw, ids, col):
    """Fields of the structure section and the structure built from them; None if invalid."""
    section = raw.get("structure")
    if not isinstance(section, dict):
        col.error("structure", "must be an object")
        return None
    variants = [k for k in ("formula", "st_graph", "truth_table") if k in section]
    if len(variants) != 1:
        col.error("structure", f"exactly one of formula/st_graph/truth_table required, got {variants}")
        return None
    kind = variants[0]
    payload = section[kind]
    fields = {"structure_kind": kind, "formula": None, "graph": None, "truth_table": None}
    try:
        if kind == "formula":
            if not isinstance(payload, str):
                raise ValueError("must be a string")
            fields["formula"], root = _parse_formula(payload, ids)
            fields["structure"] = FormulaTree(root)
        elif kind == "st_graph":
            graph = fields["graph"] = _parse_graph(payload, col)
            if graph is None:
                return None
            fields["structure"] = STGraph(ids, graph.edges, source=graph.source,
                                          sink=graph.sink, directed=graph.directed)
        else:
            if not isinstance(payload, str) or set(payload) - {"0", "1"}:
                raise ValueError("must be a string of 0s and 1s")
            if len(payload) != 1 << len(ids):
                raise ValueError(f"length {len(payload)} does not match 2^{len(ids)} states")
            fields["truth_table"] = payload
            fields["structure"] = TruthTable(payload)
    except ValueError as exc:
        col.error(f"structure.{kind}", str(exc))
        return None
    return fields


def _parse_graph(payload, col):
    """The ST-graph payload as a :class:`GraphSpec`; None if any part is invalid."""
    if not isinstance(payload, dict):
        col.error("structure.st_graph", "must be an object")
        return None
    errors = len(col.errors)
    edges_raw = payload.get("edges")
    edges = []
    if not isinstance(edges_raw, list) or not edges_raw:
        col.error("structure.st_graph.edges", "must be a non-empty list")
    else:
        for k, edge in enumerate(edges_raw):
            if (not isinstance(edge, list) or len(edge) != 2
                    or not all(isinstance(x, str) for x in edge)):
                col.error(f"structure.st_graph.edges[{k}]", "must be a pair of node labels")
                continue
            edges.append((edge[0], edge[1]))
    source = payload.get("source", "o")
    sink = payload.get("sink", "s")
    directed = payload.get("directed", False)
    if not isinstance(source, str) or not isinstance(sink, str):
        col.error("structure.st_graph", "source and sink must be strings")
    if not isinstance(directed, bool):
        col.error("structure.st_graph.directed", "must be a boolean")
    if len(col.errors) > errors:
        return None
    return GraphSpec(edges=tuple(edges), source=source, sink=sink, directed=directed)


def _parse_dependence(raw, components, col):
    """Fields of the dependence section and the belief built from them; None if invalid."""
    dep = raw.get("dependence")
    if not isinstance(dep, dict):
        col.error("dependence", "must be an object")
        return None
    kind = dep.get("kind")
    if kind not in ("independent", "explicit", "groups"):
        col.error("dependence.kind", f"unknown kind {kind!r}")
        return None
    fields = {"dependence_kind": kind, "explicit_weights": None, "groups": None}
    n = len(components)
    if kind == "independent":
        probs = [c.failure_probability for c in components]
        if None in probs:
            return None
        fields["belief"] = Independent(probs)
        return fields
    path = f"dependence.{'weights' if kind == 'explicit' else 'groups'}"
    errors = len(col.errors)
    if kind == "explicit":
        weights = dep.get("weights")
        # ``Explicit`` checks the values as one array, cheaper than 2^N ``_number`` calls
        if (not isinstance(weights, list) or len(weights) != 1 << n
                or not all(isinstance(w, float) for w in weights)):
            col.error(path, f"must be a list of 2^{n} numbers")
            return None
        fields["explicit_weights"] = tuple(weights)
    else:
        fields["groups"] = _parse_groups(dep.get("groups"), [c.id for c in components], col)
    if len(col.errors) > errors:
        return None
    try:
        if kind == "explicit":
            fields["belief"] = Explicit(fields["explicit_weights"])
        else:
            index = {c.id: i for i, c in enumerate(components)}
            fields["belief"] = CommonCauseGroups(
                [Group([index[m] for m in g.members], g.p, g.rho) for g in fields["groups"]],
                n_components=n)
    except ValueError as exc:
        col.error(path, str(exc))
        return None
    return fields


def _parse_groups(groups_raw, ids, col):
    if not isinstance(groups_raw, list) or not groups_raw:
        col.error("dependence.groups", "must be a non-empty list")
        return None
    specs = []
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
        specs.append(GroupSpec(members=tuple(members),
                               p=_number(g.get("p"), f"{path}.p", col, PROBABILITY),
                               rho=_number(g.get("rho"), f"{path}.rho", col, CORRELATION)))
    return tuple(specs)


def _parse_rates(raw, n, col):
    insp = raw.get("inspection")
    if not isinstance(insp, dict):
        col.error("inspection", "must be an object with eps_fa and eps_fs")
        return None, None
    rates = []
    for key in ("eps_fa", "eps_fs"):
        value = _numbers(insp.get(key), n, f"inspection.{key}", col, RATE)
        if isinstance(value, tuple) and len(set(value)) > 1:
            col.warn(f"inspection.{key}",
                     "non-uniform inspection accuracy: series/parallel "
                     "closed-form rules no longer apply")
        rates.append(value)
    return rates


def _parse_costs(raw, n, col):
    """(c_fail, c_repair), each None when invalid."""
    costs = raw.get("costs")
    if not isinstance(costs, dict):
        col.error("costs", "must be an object with c_fail and c_repair")
        return None, None
    c_fail = _number(costs.get("c_fail"), "costs.c_fail", col, POSITIVE)
    c_repair = _numbers(costs.get("c_repair"), n, "costs.c_repair", col, NONNEGATIVE)
    if isinstance(c_repair, float):  # one cost for every component
        c_repair = (c_repair,) * n
    if None not in (c_fail, c_repair) and c_fail + sum(c_repair) == math.inf:
        col.error("costs.c_repair", "c_fail plus the sum of c_repair must be finite")
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
    actions = []
    for k, a in enumerate(actions_raw):
        path = f"global_actions[{k}]"
        if not isinstance(a, dict):
            col.error(path, "must be an object")
            continue
        cost = _number(a.get("cost"), f"{path}.cost", col, NONNEGATIVE)
        risk = _number(a.get("residual_risk"), f"{path}.residual_risk", col, PROBABILITY)
        if None not in (cost, risk):
            actions.append(GlobalAction(cost, risk))
    return None, tuple(actions)


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario document from JSON text.

    Raises :class:`ScenarioError` carrying every validation problem found,
    each prefixed with the field path it concerns.
    """
    try:
        raw = json.loads(text, parse_int=float)
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

    dep = raw.get("dependence")
    components = _parse_components(raw, dep.get("kind") if isinstance(dep, dict) else None, col)
    if not components:
        # Everything downstream needs a usable component list.
        raise ScenarioError(col.errors or ["components: invalid"])
    ids = tuple(c.id for c in components)

    structure = _parse_structure(raw, ids, col)
    dependence = _parse_dependence(raw, components, col)
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
    built = {"structure": structure.pop("structure"), "belief": dependence.pop("belief")}
    doc = ScenarioDocument(
        components=components,
        **structure,
        **dependence,
        eps_fa=eps_fa,
        eps_fs=eps_fs,
        c_fail=c_fail,
        c_repair=c_repair,
        envelope=envelope,
        global_actions=actions,
        warnings=tuple(col.warnings),
    )
    vars(doc).update(built)  # the cached properties, built while validating
    return doc


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
    """Parse a series/parallel expression over the given component ids.

    Returns the formula written in normal form, with one space after each
    comma and none elsewhere, and its tree.
    """
    index = {cid: i for i, cid in enumerate(ids)}
    tokens = _tokenize_formula(text)
    pos = 0
    seen = set()

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

    def expr(depth):
        token, where = take()
        if token in ("series", "parallel"):
            if depth == _MAX_FORMULA_DEPTH:
                raise ValueError(f"nested deeper than {_MAX_FORMULA_DEPTH} levels "
                                 f"at position {where}")
            take("(")
            parts = [expr(depth + 1)]
            while peek() == ",":
                take(",")
                parts.append(expr(depth + 1))
            take(")")
            node_type = SeriesNode if token == "series" else ParallelNode
            return node_type(tuple(parts))
        if token in ("(", ")", ","):
            raise ValueError(f"unexpected {token!r} at position {where}")
        if token not in index:
            raise ValueError(f"unknown component id {token!r} at position {where}")
        if token in seen:
            raise ValueError(f"component {token!r} referenced more than once, at position {where}")
        seen.add(token)
        return ComponentRef(index[token])

    root = expr(0)
    if pos != len(tokens):
        raise ValueError(f"trailing input after formula: {tokens[pos][0]!r}")
    missing = [cid for cid in ids if cid not in seen]
    if missing:
        raise ValueError(f"components never referenced: {missing}")
    return "".join(", " if token == "," else token for token, _ in tokens), root
