"""Independent references for the benchmark's checks.

Nothing here imports netvoi. Each structure gets its own evaluation
(minimal path sets for graphs, a separate formula parser, the raw table
string), each belief its own closed-form pmf, posteriors come from Bayes'
rule written out, and plan losses from a per-bit transform (product and
mixture-of-product beliefs) or from plan-by-state enumeration (explicit
weights).

Conventions follow the scenario schema: bit i of a mask is component i,
1 means working. A plan mask has bit i set when component i is replaced;
repairs are perfect, so plan A turns state s into s | A.
"""

from __future__ import annotations

import math
import re

import numpy as np

# README "Determinism": plans within 1e-9 * c_fail of the optimum count as tied.
PLAN_TIE_RTOL = 1e-9
# Plans per block of the enumeration: 256 x 4096 states x 8 bytes = 8 MB at N=12.
ENUM_CHUNK = 256


def state_masks(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def bit(masks, i: int) -> np.ndarray:
    return (masks >> i) & 1


# ----------------------------------------------------------------- structures

def table_from_string(text: str) -> np.ndarray:
    """System state per mask, straight from a truth-table string."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")


_TOKEN = re.compile(r"\s*(series|parallel|\(|\)|,|[^\s(),]+)")


def table_from_formula(text: str, ids) -> np.ndarray:
    """Evaluate a series/parallel formula over all masks at once."""
    index = {c: i for i, c in enumerate(ids)}
    tokens = [m.group(1) for m in _TOKEN.finditer(text)]
    masks = state_masks(len(ids))
    pos = 0

    def take(expected):
        nonlocal pos
        if tokens[pos] != expected:
            raise ValueError(f"expected {expected!r} at token {pos} of {text!r}")
        pos += 1

    def expr():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok in ("series", "parallel"):
            take("(")
            parts = [expr()]
            while tokens[pos] == ",":
                pos += 1
                parts.append(expr())
            take(")")
            out = parts[0].copy()
            for part in parts[1:]:
                out = (out & part) if tok == "series" else (out | part)
            return out
        return bit(masks, index[tok]).astype(bool)

    table = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in formula {text!r}")
    return table


def minimal_path_masks(edges, source, sink, ids, directed) -> list[int]:
    """Component masks of the simple source-to-sink paths of a graph.

    Terminals and labels that are not component ids always conduct, so a
    path works exactly when every component on it works.
    """
    index = {c: i for i, c in enumerate(ids)}
    adjacency: dict = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        if not directed:
            adjacency.setdefault(v, []).append(u)
    paths = set()

    def walk(node, seen, mask):
        if node == sink:
            paths.add(mask)
            return
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, mask | (1 << index[nxt] if nxt in index else 0))

    walk(source, {source}, 0)
    return sorted(paths)


def table_from_graph(edges, source, sink, ids, directed) -> np.ndarray:
    masks = state_masks(len(ids))
    table = np.zeros(masks.size, dtype=bool)
    for path in minimal_path_masks(edges, source, sink, ids, directed):
        table |= (masks & path) == path
    return table


def structure_table(doc: dict) -> np.ndarray:
    """Truth table of a scenario document (a parsed JSON object)."""
    ids = [c["id"] for c in doc["components"]]
    s = doc["structure"]
    if "formula" in s:
        return table_from_formula(s["formula"], ids)
    if "truth_table" in s:
        return table_from_string(s["truth_table"])
    g = s["st_graph"]
    return table_from_graph(g["edges"], g["source"], g["sink"], ids, g["directed"])


# -------------------------------------------------------------------- beliefs

def product_pmf(q) -> np.ndarray:
    """pmf of independent components with failure probabilities q."""
    q = np.asarray(q, dtype=float)
    masks = state_masks(q.size)
    out = np.ones(masks.size)
    for i, qi in enumerate(q):
        out *= np.where(bit(masks, i), 1.0 - qi, qi)
    return out


def product_plan_risks(q, fail: np.ndarray) -> np.ndarray:
    """Post-repair failure probability of every plan under a product belief.

    One 2x2 operator per bit: leaving component j alone averages the
    failure indicator over its state, F -> q_j F[s_j=0] + (1-q_j) F[s_j=1];
    repairing it pins the state, F -> F[s_j=1]. Theta(N 2^N).
    """
    n = len(q)
    r = np.asarray(fail, dtype=float).reshape((2,) * n)
    for j in range(n):
        axis = n - 1 - j  # C order: the last axis is bit 0
        f0 = np.take(r, 0, axis=axis)
        f1 = np.take(r, 1, axis=axis)
        r = np.stack([q[j] * f0 + (1.0 - q[j]) * f1, f1], axis=axis)
    return r.reshape(-1)


def enumerate_plan_risks(pmfs: np.ndarray, fail: np.ndarray) -> np.ndarray:
    """Plan-by-state enumeration: risks[k, A] = sum_s pmfs[k, s] fail[s | A]."""
    pmfs = np.atleast_2d(pmfs)
    size = fail.size
    masks = state_masks(size.bit_length() - 1)
    out = np.empty((pmfs.shape[0], size))
    for start in range(0, size, ENUM_CHUNK):
        plans = masks[start:start + ENUM_CHUNK]
        block = fail[masks[None, :] | plans[:, None]].astype(float)
        out[:, start:start + plans.size] = pmfs @ block.T
    return out


class ProductMixture:
    """Belief as a weighted sum of product measures.

    Independent components are one term; each shared-cause group with
    rho > 0 splits every term in two (latent cause on or off), since
    given the cause the members fail independently.
    """

    def __init__(self, terms):
        self.terms = [(float(w), np.asarray(q, dtype=float)) for w, q in terms]
        self.n = self.terms[0][1].size

    @classmethod
    def independent(cls, q):
        return cls([(1.0, q)])

    @classmethod
    def one_factor_groups(cls, n, groups):
        """groups: (members, p, rho); member i fails as D_i Z + (1 - D_i) E_i."""
        terms = [(1.0, np.zeros(n))]
        for members, p, rho in groups:
            members = list(members)
            if rho == 0.0:
                for _, q in terms:
                    q[members] = p
                continue
            theta = math.sqrt(rho)
            split = []
            for w, q in terms:
                for wz, fail in ((p, theta + (1.0 - theta) * p), (1.0 - p, (1.0 - theta) * p)):
                    q2 = q.copy()
                    q2[members] = fail
                    split.append((w * wz, q2))
            terms = split
        return cls(terms)

    def pmf(self) -> np.ndarray:
        return sum(w * product_pmf(q) for w, q in self.terms)

    def marginal_failure(self, i: int) -> float:
        return sum(w * q[i] for w, q in self.terms)

    def posterior(self, i: int, w_failed: float, w_working: float) -> "ProductMixture":
        terms = []
        for w, q in self.terms:
            z = w_failed * q[i] + w_working * (1.0 - q[i])
            q2 = q.copy()
            q2[i] = w_failed * q[i] / z
            terms.append((w * z, q2))
        total = sum(w for w, _ in terms)
        return ProductMixture([(w / total, q) for w, q in terms])

    def plan_risks(self, fail: np.ndarray) -> np.ndarray:
        return sum(w * product_plan_risks(q, fail) for w, q in self.terms)


class WeightVector:
    """Belief given as one weight per state mask (an explicit joint)."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.n = self.weights.size.bit_length() - 1

    def pmf(self) -> np.ndarray:
        return self.weights

    def marginal_failure(self, i: int) -> float:
        return float(self.weights[bit(state_masks(self.n), i) == 0].sum())

    def posterior(self, i: int, w_failed: float, w_working: float) -> "WeightVector":
        w = self.weights * np.where(bit(state_masks(self.n), i), w_working, w_failed)
        return WeightVector(w / w.sum())

    def plan_risks(self, fail: np.ndarray) -> np.ndarray:
        return enumerate_plan_risks(self.weights, fail)[0]


def belief_of(doc: dict):
    """Reference belief of a scenario document (a parsed JSON object)."""
    comps = doc["components"]
    dep = doc["dependence"]
    if dep["kind"] == "independent":
        return ProductMixture.independent([c["failure_probability"] for c in comps])
    if dep["kind"] == "explicit":
        return WeightVector(dep["weights"])
    index = {c["id"]: i for i, c in enumerate(comps)}
    groups = [([index[m] for m in g["members"]], g["p"], g["rho"]) for g in dep["groups"]]
    return ProductMixture.one_factor_groups(len(comps), groups)


# --------------------------------------------------------------- inspections

def rates(doc: dict, key: str, n: int) -> list[float]:
    v = doc["inspection"][key]
    return [float(x) for x in v] if isinstance(v, list) else [float(v)] * n


def likelihoods(fa: float, fs: float, alarm: bool) -> tuple[float, float]:
    """P(outcome | failed), P(outcome | working): a working component alarms
    with probability fa, a failed one stays silent with probability fs."""
    return (1.0 - fs, fa) if alarm else (fs, 1.0 - fa)


def alarm_prob(belief, i: int, fa: float, fs: float) -> float:
    q = belief.marginal_failure(i)
    return (1.0 - fs) * q + fa * (1.0 - q)


def failure_prob(belief, fail: np.ndarray) -> float:
    return float(belief.pmf() @ fail)


# ----------------------------------------------------------------- envelopes

def envelope_of(doc: dict):
    """Concave system-level loss as a function of the failure probability."""
    c_fail = float(doc["costs"]["c_fail"])
    if doc.get("envelope") == "quadratic":
        return lambda p: p * (1.0 - p)
    if doc.get("envelope") == "binary":
        c_rep = doc["costs"]["c_repair"]
        c_min = min(c_rep) if isinstance(c_rep, list) else float(c_rep)
        return lambda p: min(c_fail * p, c_min)
    lines = [(a["residual_risk"] * c_fail, a["cost"]) for a in doc["global_actions"]]
    return lambda p: min(b + m * p for m, b in lines)


def envelope_scale(doc: dict) -> float:
    costs = [a["cost"] for a in doc.get("global_actions", [])]
    return max([1.0, float(doc["costs"]["c_fail"])] + costs)


def repair_costs(doc: dict, n: int) -> np.ndarray:
    c = doc["costs"]["c_repair"]
    return np.array(c if isinstance(c, list) else [c] * n, dtype=float)


def repair_cost_vector(c_repair) -> np.ndarray:
    masks = state_masks(len(c_repair))
    out = np.zeros(masks.size)
    for i, c in enumerate(c_repair):
        out += c * bit(masks, i)
    return out


# ------------------------------------------------------- whole-scenario view

class ScenarioReference:
    """Every exact quantity the CLI prints for one scenario document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.ids = [c["id"] for c in doc["components"]]
        self.names = [c.get("name", c["id"]) for c in doc["components"]]
        self.n = n = len(self.ids)
        self.table = structure_table(doc)
        self.fail = (~self.table).astype(float)
        self.belief = belief_of(doc)
        self.fa = rates(doc, "eps_fa", n)
        self.fs = rates(doc, "eps_fs", n)
        self.c_fail = float(doc["costs"]["c_fail"])
        self.c_repair = repair_costs(doc, n)
        self.env = envelope_of(doc)
        self.env_scale = envelope_scale(doc)
        self.prior = failure_prob(self.belief, self.fail)
        self.h = [alarm_prob(self.belief, i, self.fa[i], self.fs[i]) for i in range(n)]
        self.posteriors = {}
        for i in range(n):
            for alarm in (False, True):
                wf, ww = likelihoods(self.fa[i], self.fs[i], alarm)
                self.posteriors[i, alarm] = self.belief.posterior(i, wf, ww)
        self.lo = [failure_prob(self.posteriors[i, False], self.fail) for i in range(n)]
        self.hi = [failure_prob(self.posteriors[i, True], self.fail) for i in range(n)]
        self._losses = None

    def interval_rows(self):
        return {self.names[i]: (self.lo[i], self.hi[i], self.prior, self.h[i])
                for i in range(self.n)}

    def global_rows(self):
        env = self.env
        perfect_line = lambda p: p * env(1.0) + (1.0 - p) * env(0.0)  # noqa: E731
        prior_loss = env(self.prior)
        rows = {}
        for i in range(self.n):
            post = self.h[i] * env(self.hi[i]) + (1.0 - self.h[i]) * env(self.lo[i])
            rows[self.names[i]] = {"voi": prior_loss - post, "posterior_loss": post,
                                   "posterior_regret": post - perfect_line(self.prior)}
        regret = max(prior_loss - perfect_line(self.prior), 0.0)
        return prior_loss, regret, rows

    def importance(self, i: int) -> dict:
        bm = self.hi[i] - self.lo[i]
        return {"bm": bm, "crt": bm * self.belief.marginal_failure(i) / self.prior}

    def losses(self, key) -> np.ndarray:
        """Expected loss of every plan mask; key None is the prior, else (i, alarm)."""
        if self._losses is None:
            keys = [None] + sorted(self.posteriors)
            beliefs = [self.belief] + [self.posteriors[k] for k in keys[1:]]
            if isinstance(self.belief, WeightVector):
                risks = enumerate_plan_risks(np.stack([b.pmf() for b in beliefs]), self.fail)
            else:
                risks = np.stack([b.plan_risks(self.fail) for b in beliefs])
            repair = repair_cost_vector(self.c_repair)
            self._losses = {k: self.c_fail * r + repair for k, r in zip(keys, risks)}
        return self._losses[key]

    def tied_plans(self, key, slack: float = 0.0) -> np.ndarray:
        """Plans within the tie tolerance (plus slack) of the optimum."""
        loss = self.losses(key)
        return np.flatnonzero(loss <= loss.min() + PLAN_TIE_RTOL * self.c_fail + slack)

    def plan_mask(self, label: str) -> int:
        if label == "-":
            return 0
        index = {name: i for i, name in enumerate(self.names)}
        return sum(1 << index[name] for name in label.split("+"))
