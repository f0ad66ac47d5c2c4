"""Checks of what the CLI printed against the references and known properties.

Tolerances are absolute, scaled by the scenario's cost scale (c_fail for
plan losses), plus a relative part for the 12-significant-digit rounding
of the output. Where the reference finds several plans within the tie
tolerance of the optimum, any of their losses is accepted, so the checks
compare values and never the order among near-ties.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from reference import PLAN_TIE_RTOL, ScenarioReference

ABS_TOL = 1e-12          # times the cost scale
REL_TOL = 6e-12          # output keeps 12 significant digits (half a unit: 5e-12)
MIXING_TOL = 1e-11       # h*hi + (1-h)*lo = prior, from rounded outputs
MC_SIGMAS = 6.0
SVG_NS = "{http://www.w3.org/2000/svg}"
PLOT_HEIGHT_PX = 304.0   # bar height of a normalized value of 1
PLOT_TOL = 1e-4
IMPORTANCE = ("bm", "crt", "raw", "rrw")


def tol(value: float, scale: float) -> float:
    return ABS_TOL * scale + REL_TOL * abs(value)


def near_any(value: float, candidates, scale: float) -> bool:
    return any(abs(value - c) <= tol(value, scale) for c in candidates)


# ------------------------------------------------------------------ parsing

def parse(cmd: str, fmt: str, text: str):
    """Canonical table of one output: (header values, rows as tuples)."""
    if cmd in ("reliability", "mc"):
        return {}, [tuple(float(x) for x in text.split())]
    if cmd == "plot":
        return {}, []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        out = []
        for row in body:
            out.append(tuple(c if h in ("component", "silence_plan", "alarm_plan")
                             else int(c) if h == "rank" else float(c)
                             for h, c in zip(header, row)))
        return {"columns": header}, out
    obj = json.loads(text)
    rows = obj.pop("rows")
    columns = list(rows[0].keys()) if rows else []
    out = [tuple(v if k in ("component", "silence_plan", "alarm_plan")
                 else v if k == "rank" else float(v) for k, v in r.items()) for r in rows]
    obj["columns"] = columns
    return obj, out


# ---------------------------------------------------------------- per command

class Checker:
    """Checks the outputs of one workload run; collects error messages."""

    def __init__(self, references: dict):
        self.refs = references            # key -> [ScenarioReference, ...]
        self.errors: list[str] = []

    def fail(self, where: str, message: str) -> None:
        if len(self.errors) < 200:
            self.errors.append(f"{where}: {message}")

    # ----------------------------------------------------------- dispatch
    def check(self, o: dict, out: str, pass_values: dict) -> None:
        where = " ".join(o["argv"][:1] + [o["key"]] + o["argv"][2:])
        try:
            header, rows = parse(o["cmd"], o["fmt"], out)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            self.fail(where, f"unparseable output ({exc}): {out[:200]!r}")
            return
        for ref in self.refs[o["key"]]:
            getattr(self, "_" + ("importance" if o["cmd"] in IMPORTANCE else o["cmd"]))(
                ref, o, header, rows, out, where)
        pass_values.setdefault((o["key"], o["cmd"]), []).append((o["fmt"], header, rows))

    # ----------------------------------------------------------- commands
    def _reliability(self, ref, o, header, rows, out, where):
        (value,), = rows
        if abs(value - ref.prior) > tol(value, 1.0):
            self.fail(where, f"failure probability {value!r}, reference {ref.prior!r}")

    def _mc(self, ref, o, header, rows, out, where):
        self.check_mc(where, rows[0], ref.prior, int(o["argv"][o["argv"].index("--mc-samples") + 1]))

    def check_mc(self, where, row, exact, n):
        estimate, stderr = row
        sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / n)
        if abs(estimate - exact) > MC_SIGMAS * sigma + MC_SIGMAS / n:
            self.fail(where, f"Monte Carlo {estimate!r} is {abs(estimate - exact) / sigma:.1f} "
                             f"sigma from the exact {exact!r}")
        if not (stderr >= 0.0 and math.isfinite(stderr)):
            self.fail(where, f"standard error {stderr!r}")

    def _intervals(self, ref, o, header, rows, out, where):
        expected = ref.interval_rows()
        if [r[0] for r in rows] != ref.names:
            self.fail(where, "components out of order")
        for name, lo, hi, prior, h in rows:
            for label, got, want in zip(("silence_posterior", "alarm_posterior", "prior",
                                         "alarm_probability"), (lo, hi, prior, h),
                                        expected[name]):
                if abs(got - want) > tol(got, 1.0):
                    self.fail(where, f"{name} {label} {got!r}, reference {want!r}")
            if abs(h * hi + (1.0 - h) * lo - prior) > MIXING_TOL:
                self.fail(where, f"{name}: h*hi + (1-h)*lo != prior")

    def _ranking(self, rows, where):
        values = [r[2] for r in rows]
        if any(b > a for a, b in zip(values, values[1:])):
            self.fail(where, f"values increase along the ranking: {values}")
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            self.fail(where, "rank column is not 1..N")

    def _normalized(self, rows, where):
        top = max(r[2] for r in rows)
        for r in rows:
            want = r[2] / top if top > 0.0 else 0.0
            if abs(r[3] - want) > 1e-10 + 1e-10 * abs(want):
                self.fail(where, f"{r[1]} voi_normalized {r[3]!r}, voi/max(voi) {want!r}")

    def _global(self, ref, o, header, rows, out, where):
        prior_loss, prior_regret, expected = ref.global_rows()
        scale = ref.env_scale
        self._ranking(rows, where)
        self._normalized(rows, where)
        for row in rows:
            name, voi, _, post, regret = row[1], row[2], row[3], row[4], row[5]
            want = expected[name]
            for label, got in (("voi", voi), ("posterior_loss", post),
                               ("posterior_regret", regret)):
                if abs(got - want[label]) > tol(got, scale):
                    self.fail(where, f"{name} {label} {got!r}, reference {want[label]!r}")
        for label, want in (("prior_loss", prior_loss), ("prior_regret", prior_regret)):
            if label in header and abs(header[label] - want) > tol(want, scale):
                self.fail(where, f"{label} {header[label]!r}, reference {want!r}")

    def _slack(self, ref):
        return 2.0 * ABS_TOL * ref.c_fail

    def _candidates(self, ref, key):
        loss = ref.losses(key)
        return [float(v) for v in np.unique(loss[ref.tied_plans(key, self._slack(ref))])]

    def _local(self, ref, o, header, rows, out, where):
        self._ranking(rows, where)
        self._normalized(rows, where)
        prior = self._candidates(ref, None)
        self._prior_plan(ref, header, where)
        for row in rows:
            name, voi, post = row[1], row[2], row[4]
            i = ref.names.index(name)
            h = ref.h[i]
            post_c = [(1 - h) * a + h * b for a in self._candidates(ref, (i, False))
                      for b in self._candidates(ref, (i, True))]
            self._loss_and_voi(ref, where, name, post, voi, post_c,
                               [p - c for p in prior for c in post_c])

    def _loss_and_voi(self, ref, where, name, post, voi, post_c, voi_c):
        if not near_any(post, post_c, ref.c_fail):
            self.fail(where, f"{name} posterior_loss {post!r}, reference {post_c[:4]}")
        if not near_any(voi, voi_c, ref.c_fail):
            self.fail(where, f"{name} voi {voi!r}, reference {voi_c[:4]}")
        if voi < -tol(voi, ref.c_fail):
            self.fail(where, f"{name} voi {voi!r} is negative")

    def _prior_plan(self, ref, header, where):
        """JSON only: the prior plan must be optimal and priced right."""
        if "prior_plan" not in header:
            return None
        plan = ref.plan_mask(header["prior_plan"])
        loss = ref.losses(None).tolist()
        if plan not in ref.tied_plans(None, self._slack(ref)):
            self.fail(where, f"prior plan {header['prior_plan']} loses by "
                             f"{loss[plan] - min(loss):.3e}")
        if abs(header["prior_loss"] - loss[plan]) > tol(loss[plan], ref.c_fail):
            self.fail(where, f"prior_loss {header['prior_loss']!r}, reference {loss[plan]!r}")
        return plan

    def heuristic_candidates(self, ref, i, plans):
        """Posterior-loss candidates when only component i's repair may flip."""
        out, voi = [], []
        h = ref.h[i]
        window = PLAN_TIE_RTOL * ref.c_fail + self._slack(ref)
        for plan in plans:
            repaired = (plan >> i) & 1
            per_outcome = []
            for alarm in (False, True):
                loss = ref.losses((i, alarm))
                keep = float(loss[plan])
                if alarm == bool(repaired):
                    per_outcome.append([keep])
                    continue
                flip = float(loss[plan ^ (1 << i)])
                best = min(keep, flip)
                per_outcome.append([v for v in (keep, flip) if v <= best + window])
            post = [(1 - h) * s + h * a for s in per_outcome[0] for a in per_outcome[1]]
            out += post
            voi += [float(ref.losses(None)[plan]) - p for p in post]
        return out, voi

    def _heuristic(self, ref, o, header, rows, out, where):
        self._ranking(rows, where)
        self._normalized(rows, where)
        plan = self._prior_plan(ref, header, where)
        plans = [plan] if plan is not None else list(ref.tied_plans(None, self._slack(ref)))
        for row in rows:
            name, voi, post = row[1], row[2], row[4]
            self._loss_and_voi(ref, where, name, post, voi,
                               *self.heuristic_candidates(ref, ref.names.index(name), plans))

    def _importance(self, ref, o, header, rows, out, where):
        metric = o["cmd"]
        self._ranking(rows, where)
        if sorted(r[1] for r in rows) != sorted(ref.names):
            self.fail(where, "components missing from the ranking")
        if "prior_failure" in header and abs(header["prior_failure"] - ref.prior) > tol(ref.prior, 1.0):
            self.fail(where, f"prior_failure {header['prior_failure']!r}, reference {ref.prior!r}")
        if metric not in ("bm", "crt"):
            return
        for _, name, value in rows:
            want = ref.importance(ref.names.index(name))[metric]
            if abs(value - want) > tol(value, 1.0):
                self.fail(where, f"{name} {metric} {value!r}, reference {want!r}")

    def _actions(self, ref, o, header, rows, out, where):
        if [r[0] for r in rows] != ref.names:
            self.fail(where, "components out of order")
        for name, s_plan, a_plan, s_loss, a_loss in rows:
            i = ref.names.index(name)
            for alarm, label, got in ((False, s_plan, s_loss), (True, a_plan, a_loss)):
                loss = ref.losses((i, alarm)).tolist()
                plan = ref.plan_mask(label)
                outcome = "alarm" if alarm else "silence"
                if abs(got - loss[plan]) > tol(got, ref.c_fail):
                    self.fail(where, f"{name} {outcome} plan {label}: loss {got!r}, "
                                     f"reference {loss[plan]!r}")
                gap = loss[plan] - min(loss)
                if gap > PLAN_TIE_RTOL * ref.c_fail + self._slack(ref):
                    self.fail(where, f"{name} {outcome} plan {label} loses to the optimum "
                                     f"by {gap:.3e}")

    def _plot(self, ref, o, header, rows, out, where):
        try:
            root = ET.fromstring(out)
        except ET.ParseError as exc:
            self.fail(where, f"SVG does not parse: {exc}")
            return
        rects = [r for r in root.iter(SVG_NS + "rect") if r.get("height") != "100%"]
        labels = [t.text for t in root.iter(SVG_NS + "text")]
        n = ref.n
        if labels[-n:] != ref.names:
            self.fail(where, f"bar labels {labels[-n:]}")
        expected = self.normalized_series(ref)
        if len(rects) != len(expected) * (n + 1):
            self.fail(where, f"{len(rects)} rectangles for {len(expected)} series")
            return
        if labels[6:6 + len(expected)] != [label for label, _, _ in expected]:
            self.fail(where, f"legend {labels[6:6 + len(expected)]}")
        for k, (label, values, allowed) in enumerate(expected):
            bars = rects[k * (n + 1):k * (n + 1) + n]
            for name, bar, want in zip(ref.names, bars, values):
                got = float(bar.get("height")) / PLOT_HEIGHT_PX
                if abs(got - want) > PLOT_TOL + allowed:
                    self.fail(where, f"{label} bar of {name}: {got:.6f}, reference {want:.6f}")

    def normalized_series(self, ref):
        """(label, normalized values, allowed error) for global, local, heuristic."""
        _, _, grows = ref.global_rows()
        global_voi = [grows[name]["voi"] for name in ref.names]
        loss0 = ref.losses(None)
        prior_loss = loss0.min()
        local_voi = []
        for i in range(ref.n):
            h = ref.h[i]
            post = (1 - h) * ref.losses((i, False)).min() + h * ref.losses((i, True)).min()
            local_voi.append(prior_loss - post)
        plan = int(ref.tied_plans(None)[0])
        heur_voi = [self.heuristic_candidates(ref, i, [plan])[1][0] for i in range(ref.n)]
        out = []
        for label, voi, err in (("global", global_voi, ABS_TOL * ref.env_scale),
                                ("local", local_voi, 4 * PLAN_TIE_RTOL * ref.c_fail),
                                ("heuristic", heur_voi, 4 * PLAN_TIE_RTOL * ref.c_fail)):
            top = max(voi)
            if top <= err:
                out.append((label, [0.0] * ref.n, 1.0))   # values too small to resolve
            else:
                out.append((label, [max(v, 0.0) / top for v in voi], 2 * err / top))
        return out

    # -------------------------------------------------- properties of a pass
    def check_pass(self, pass_values: dict) -> None:
        """Cross-command properties among the outputs of one pass."""
        for (key, cmd), outputs in pass_values.items():
            by_fmt = {}
            for fmt, header, rows in outputs:
                by_fmt.setdefault(fmt, rows)
            if "csv" in by_fmt and "json" in by_fmt and cmd not in ("reliability", "mc", "plot"):
                if by_fmt["csv"] != by_fmt["json"]:
                    self.fail(f"{cmd} {key}", "CSV and JSON carry different numbers")
        keys = {key for key, _ in pass_values}
        for key in keys:
            local = pass_values.get((key, "local"))
            heur = pass_values.get((key, "heuristic"))
            if not (local and heur):
                continue
            c_fail = self.refs[key][0].c_fail
            lv = {r[1]: r[2] for r in local[0][2]}
            for r in heur[0][2]:
                if not -tol(r[2], c_fail) <= r[2] <= lv[r[1]] + 2 * PLAN_TIE_RTOL * c_fail:
                    self.fail(f"rank {key}", f"{r[1]}: heuristic {r[2]!r} not in "
                                             f"[0, local {lv[r[1]]!r}]")


def references_for(docs: dict, same_joint: dict) -> dict:
    """key -> list of references; ``same_joint`` maps a key to extra documents
    that describe the same joint in another form, checked against too."""
    refs = {key: [ScenarioReference(doc)] for key, doc in docs.items()}
    for key, others in same_joint.items():
        refs[key] += [ScenarioReference(doc) for doc in others]
    return refs
