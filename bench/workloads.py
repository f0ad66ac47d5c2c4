"""Workload definitions: the scenario documents and the commands of one pass.

Every input is made from the seed, so the same seed gives the same inputs.
Each workload is a fixed list of CLI invocations (one pass); a run repeats
whole passes. Commands whose single call is short appear several times in
a pass so that their per-run median rests on more than one sample.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from reference import ProductMixture, table_from_graph

CASE_MC_SAMPLES = 1_000_000
SWEEP_MC_SAMPLES = 100_000
BEYOND_CAP_MC_SAMPLES = 100_000
IMPORTANCE = ("bm", "crt", "raw", "rrw")
RANK_VOI = ("global", "local", "heuristic")

WORKLOADS = ("layered16", "substation", "substation-explicit", "small-sweep")


def op(key, cmd, path, *extra, fmt="csv"):
    """One CLI invocation. ``cmd`` is the name the checks and metrics use."""
    argv = ["rank" if cmd in RANK_VOI + IMPORTANCE else
            "reliability" if cmd == "mc" else cmd, str(path)]
    if cmd in RANK_VOI + IMPORTANCE:
        argv += ["--metric", cmd]
    if fmt == "json":
        argv += ["--format", "json"]
    argv += [str(x) for x in extra]
    return {"key": key, "cmd": cmd, "fmt": fmt, "argv": argv}


def write_doc(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def case_study_pass(block, heavy):
    """Cheap commands as a block between each pair of long ones.

    A pass reads block, heavy[0], block, heavy[1], ..., block, so samples of
    the cheap commands spread over the whole pass instead of one moment of
    it; the machine's speed drifts by tens of percent within a minute.
    """
    ops = list(block)
    for h in heavy:
        ops += [h] + list(block)
    return ops


def importance_ops(key, path):
    return [op(key, metric, path, fmt="json") for metric in IMPORTANCE]


# ------------------------------------------------------------- case studies

def layered16_branch(doc: dict) -> dict:
    """The lower branch of layered16 (c8..c16) as a network of its own."""
    keep = {f"c{i}" for i in range(8, 17)}
    out = json.loads(json.dumps(doc))
    out["components"] = [c for c in doc["components"] if c["id"] in keep]
    g = out["structure"]["st_graph"]
    g["edges"] = [e for e in g["edges"] if all(x in keep or x in ("o", "s") for x in e)]
    return out


def layered16_in_series(doc: dict) -> dict:
    """Two copies of layered16 in series: 32 components, junction m between."""
    out = json.loads(json.dumps(doc))
    copy = [{**c, "id": "d" + c["id"][1:]} for c in doc["components"]]
    out["components"] = doc["components"] + copy
    rename = lambda x: {"o": "m"}.get(x, "d" + x[1:] if x.startswith("c") else x)  # noqa: E731
    edges = doc["structure"]["st_graph"]["edges"]
    out["structure"]["st_graph"]["edges"] = (
        [[{"s": "m"}.get(x, x) for x in e] for e in edges]
        + [[rename(x) for x in e] for e in edges])
    return out


def substation_explicit(doc: dict) -> dict:
    """The substation joint written as a 4096-weight explicit table."""
    index = {c["id"]: i for i, c in enumerate(doc["components"])}
    groups = [([index[m] for m in g["members"]], g["p"], g["rho"])
              for g in doc["dependence"]["groups"]]
    weights = ProductMixture.one_factor_groups(len(index), groups).pmf()
    out = json.loads(json.dumps(doc))
    out["dependence"] = {"kind": "explicit", "weights": [float(w) for w in weights]}
    return out


# -------------------------------------------------------------- small sweep

# N = 3..8: SWEEP_KINDS slot make-ups, three per N, each drawn twice, so
# that the per-command medians over mixed sizes steady across seeds.
SWEEP_KINDS = 18
SWEEP_SLOTS = 2 * SWEEP_KINDS
STRUCTURES = ("formula", "st_graph", "truth_table")
BELIEFS = ("independent", "groups", "explicit")
ENVELOPES = ("quadratic", "binary", "actions")


def random_formula(rng: random.Random, ids, kind="series") -> str:
    if len(ids) == 1:
        return ids[0]
    parts = rng.randint(2, min(3, len(ids)))
    cuts = sorted(rng.sample(range(1, len(ids)), parts - 1))
    groups = [ids[a:b] for a, b in zip([0] + cuts, cuts + [len(ids)])]
    other = "parallel" if kind == "series" else "series"
    return f"{kind}(" + ", ".join(random_formula(rng, g, other) for g in groups) + ")"


def random_layered_graph(rng: random.Random, ids):
    """Components in layers; each layer links to the next, the ends to o and s."""
    layers, rest = [], list(ids)
    while rest:
        k = rng.randint(1, min(3, len(rest)))
        layers.append(rest[:k])
        rest = rest[k:]
    edges = [["o", c] for c in layers[0]]
    for a, b in zip(layers, layers[1:]):
        for v in b:
            edges.append([rng.choice(a), v])
        for u in a:
            if rng.random() < 0.5:
                edges.append([u, rng.choice(b)])
    edges += [[c, "s"] for c in layers[-1]]
    unique = []
    for e in edges:
        if e not in unique:
            unique.append(e)
    return unique


def sweep_scenario(rng: random.Random, slot: int) -> dict:
    slot %= SWEEP_KINDS
    n = 3 + slot // 3
    structure = STRUCTURES[slot % 3]
    belief = BELIEFS[(slot + slot // 3) % 3]
    envelope = ENVELOPES[(slot + 2 * (slot // 3)) % 3]
    ids = [f"x{i + 1}" for i in range(n)]
    order = ids[:]
    rng.shuffle(order)

    if structure == "formula":
        struct = {"formula": random_formula(rng, order, rng.choice(("series", "parallel")))}
    else:
        graph = {"edges": random_layered_graph(rng, order), "source": "o", "sink": "s",
                 "directed": rng.random() < 0.5}
        if structure == "st_graph":
            struct = {"st_graph": graph}
        else:
            table = table_from_graph(graph["edges"], "o", "s", ids, graph["directed"])
            struct = {"truth_table": "".join("1" if t else "0" for t in table)}

    components = [{"id": c} for c in ids]
    if belief == "independent":
        for c in components:
            c["failure_probability"] = round(rng.uniform(0.02, 0.4), 6)
        dependence = {"kind": "independent"}
    elif belief == "groups":
        members = ids[:]
        rng.shuffle(members)
        first = rng.randint(2, min(3, n))
        groups = [members[:first]]
        rest = members[first:]
        while rest:
            k = rng.randint(1, min(3, len(rest)))
            groups.append(rest[:k])
            rest = rest[k:]
        dependence = {"kind": "groups", "groups": [
            {"members": g, "p": round(rng.uniform(0.02, 0.3), 6),
             "rho": round(rng.uniform(0.1, 0.7), 6) if j == 0 or rng.random() < 0.5 else 0.0}
            for j, g in enumerate(groups)]}
    else:
        q = [rng.uniform(0.02, 0.4) for _ in ids]
        noise = np.array([rng.uniform(0.5, 1.5) for _ in range(1 << n)])
        w = ProductMixture.independent(q).pmf() * noise
        dependence = {"kind": "explicit", "weights": [float(x) for x in w / w.sum()]}

    if slot % 2:
        inspection = {"eps_fa": [round(rng.uniform(0.0, 0.15), 6) for _ in ids],
                      "eps_fs": [round(rng.uniform(0.0, 0.15), 6) for _ in ids]}
    else:
        inspection = {"eps_fa": round(rng.uniform(0.0, 0.15), 6),
                      "eps_fs": round(rng.uniform(0.0, 0.15), 6)}
    c_fail = round(rng.uniform(1.0, 10.0), 6)
    if rng.random() < 0.5:
        c_repair = round(c_fail * rng.uniform(0.01, 0.15), 6)
    else:
        c_repair = [round(c_fail * rng.uniform(0.01, 0.15), 6) for _ in ids]
    doc = {"schema_version": "1", "components": components, "structure": struct,
           "dependence": dependence, "inspection": inspection,
           "costs": {"c_fail": c_fail, "c_repair": c_repair}}
    if envelope == "actions":
        doc["global_actions"] = [
            {"cost": 0.0, "residual_risk": 1.0},
            {"cost": round(c_fail * rng.uniform(0.02, 0.1), 6),
             "residual_risk": round(rng.uniform(0.2, 0.5), 6)},
            {"cost": round(c_fail * rng.uniform(0.15, 0.3), 6), "residual_risk": 0.0},
        ]
    else:
        doc["envelope"] = envelope
    return doc


def sweep_pass(key, path, seed):
    ops = [op(key, "reliability", path),
           op(key, "mc", path, "--mc-samples", SWEEP_MC_SAMPLES, "--seed", seed),
           op(key, "plot", path)]
    for fmt in ("csv", "json"):
        for cmd in ("intervals", "actions") + RANK_VOI + IMPORTANCE:
            ops.append(op(key, cmd, path, fmt=fmt))
    return ops


# ----------------------------------------------------------------- assembly

def build(name: str, seed: int, root: Path, workdir: Path) -> dict:
    """Scenario documents, their files, the pass and the beyond-cap operation.

    Returns {"docs": {key: doc}, "same_joint": {key: [doc, ...]},
    "setup": [scenario paths], "ops": [op, ...], "beyond_cap": op or None};
    ``same_joint`` holds other documents of the same joint, checked against too.
    """
    docs, same_joint, paths, ops, beyond = {}, {}, {}, [], None
    if name == "layered16":
        doc = json.loads((root / "scenarios" / "layered16.json").read_text())
        docs["layered16"] = doc
        paths["layered16"] = root / "scenarios" / "layered16.json"
        docs["branch"] = layered16_branch(doc)
        paths["branch"] = write_doc(workdir, "layered16_branch", docs["branch"])
        lay, br = paths["layered16"], paths["branch"]
        block = ([op("layered16", "reliability", lay)] * 3
                 + [op("layered16", "mc", lay, "--mc-samples", CASE_MC_SAMPLES, "--seed", seed)] * 2
                 + [op("layered16", "intervals", lay), op("layered16", "global", lay, fmt="json")] * 2
                 + importance_ops("layered16", lay)
                 + [op("branch", "actions", br), op("branch", "plot", br)] * 4)
        ops = case_study_pass(block, [op("layered16", "heuristic", lay, fmt="json"),
                                      op("layered16", "local", lay, fmt="json")])
        # Checked against 1 - (1 - F16)^2, not against a full reference.
        series32 = write_doc(workdir, "layered16_in_series", layered16_in_series(doc))
        beyond = op("series32", "mc", series32, "--mc-samples",
                    BEYOND_CAP_MC_SAMPLES, "--seed", seed)
    elif name in ("substation", "substation-explicit"):
        doc = json.loads((root / "scenarios" / "substation.json").read_text())
        if name == "substation":
            docs[name], paths[name] = doc, root / "scenarios" / "substation.json"
        else:
            docs[name], same_joint[name] = substation_explicit(doc), [doc]
            paths[name] = write_doc(workdir, "substation_explicit", docs[name])
        path = paths[name]
        block = ([op(name, "reliability", path)] * 2
                 + [op(name, "intervals", path), op(name, "global", path, fmt="json")]
                 + importance_ops(name, path) + [op(name, "heuristic", path, fmt="json")])
        mc = [op(name, "mc", path, "--mc-samples", CASE_MC_SAMPLES, "--seed", seed * 10 + r)
              for r in range(3)]
        ops = case_study_pass(block, [mc[0], op(name, "actions", path), mc[1],
                                      op(name, "local", path, fmt="json"), mc[2],
                                      op(name, "plot", path)])
    elif name == "small-sweep":
        rng = random.Random(seed)
        for slot in range(SWEEP_SLOTS):
            key = f"sweep{slot:02d}"
            docs[key] = sweep_scenario(rng, slot)
            paths[key] = write_doc(workdir, key, docs[key])
            ops += sweep_pass(key, paths[key], seed * 100 + slot)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return {"docs": docs, "same_joint": same_joint, "setup": [str(p) for p in paths.values()],
            "ops": ops, "beyond_cap": beyond}
