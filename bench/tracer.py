"""Spans around the public functions of each netvoi module, from outside.

``Tracer.install`` wraps every public function and public method defined
in a netvoi module and rebinds it under every name it is looked up under:
the defining module, the package namespace and each module that imported
it by value (``netvoi.cli`` does). A span is (name, start, end, parent,
work): name is ``<module>.<function>``, parent the index of the enclosing
span or -1, and work a count of units done where one is defined. Spans
stay in memory until ``write``; the program itself carries no tracing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref

PACKAGE = "netvoi"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._tables_seen = weakref.WeakSet()

    # --------------------------------------------------------------- spans
    def _record(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              work(*args, **kwargs) if work else None)

        return traced

    # ----------------------------------------------------------- work units
    def _work(self, layer: str, name: str):
        if (layer, name) == ("local_metrics", "plan_failure_risks"):
            return lambda net, dist: 3 ** net.n_components
        if (layer, name) == ("oracle", "mc_system_failure"):
            return lambda net, dist, cfg: cfg.n_samples
        if (layer, name) == ("model", "truth_table"):
            seen = self._tables_seen

            def states_built(structure):
                # Network.truth_table delegates; count each structure once.
                if not hasattr(structure, "structure") and structure not in seen:
                    seen.add(structure)
                    return 1 << structure.n_components
                return 0
            return states_built
        return None

    # --------------------------------------------------------- installation
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replaced = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    replaced[id(obj)] = (obj, self._record(
                        f"{layer}.{attr}", obj, self._work(layer, attr)))
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for mattr, meth in list(vars(obj).items()):
                        if mattr.startswith("_") or not inspect.isfunction(meth):
                            continue
                        wrapped = self._record(f"{layer}.{mattr}", meth,
                                               self._work(layer, mattr))
                        setattr(obj, mattr, wrapped)
                        self._restore.append((obj, mattr, meth))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, attr, replaced[id(obj)][1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Measured time one span adds to a call: wrapped minus bare no-op."""
        def noop():
            return None
        wrapped = Tracer()._record("calibration", noop, None)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return max(sorted(costs)[repeats // 2], 0.0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


# ------------------------------------------------------------------ summary

def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    dur = [end - start for _, start, end, _, _ in spans]
    out = dur[:]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            out[parent] -= dur[i]
    return out


def layer_metrics(spans, span_cost: float, output_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    tracing_overhead_s is the number of spans times the measured cost of
    one span. The wall-time difference between a traced and an untraced
    pass is not used: on layered16 it is buried in run-to-run noise (one
    such difference read -1.09 s on 65 s passes), and a second pass would
    take a traced run there to 140 s of the 180 s a run may last.
    """
    self_t = self_times(spans)
    by_name: dict = {}
    for (name, start, end, _, work), st in zip(spans, self_t):
        agg = by_name.setdefault(name, [0.0, 0.0, 0, 0])
        agg[0] += st
        agg[1] += end - start
        agg[2] += 1
        agg[3] += work or 0

    def total(names, field=0):
        return sum(by_name.get(n, [0.0, 0.0, 0, 0])[field] for n in names)

    def layer_self(layer):
        return sum(v[0] for k, v in by_name.items() if k.startswith(layer + "."))

    pfr = ["local_metrics.plan_failure_risks"]
    mc = ["oracle.mc_system_failure"]
    cells, pfr_s = total(pfr, 3), total(pfr)
    samples, mc_total = total(mc, 3), total(mc, 1)
    s, count, n = "s", "count", "1/s"
    metrics = {
        "scenario.parse_s": (total(["scenario.parse_scenario",
                                    "scenario.parse_scenario_file"]), s),
        "scenario.build_s": (sum(v[0] for k, v in by_name.items()
                                 if k.startswith("scenario.build_")), s),
        "model.truth_table_s": (total(["model.truth_table"]), s),
        "model.truth_table_states": (total(["model.truth_table"], 3), count),
        "distributions.pmf_vector_s": (total(["distributions.pmf_vector"]), s),
        "distributions.pmf_vector_calls": (total(["distributions.pmf_vector"], 2), count),
        "distributions.reweight_s": (total(["distributions.reweight_component"]), s),
        "distributions.posteriors_built": (total(["distributions.reweight_component",
                                                  "distributions.condition"], 2), count),
        "distributions.system_failure_prob_s": (
            total(["distributions.system_failure_prob"]), s),
        "inference.posterior_interval_s": (total(["inference.posterior_interval"]), s),
        "inference.posterior_interval_calls": (
            total(["inference.posterior_interval"], 2), count),
        "local_metrics.plan_failure_risks_s": (pfr_s, s),
        "local_metrics.plan_failure_risks_calls": (total(pfr, 2), count),
        "local_metrics.lattice_cells": (cells, count),
        "local_metrics.lattice_cells_per_s": (cells / pfr_s if pfr_s > 0 else 0.0, n),
        "local_metrics.optimal_plan_s": (total(["local_metrics.optimal_plan"]), s),
        "local_metrics.plan_expected_loss_s": (
            total(["local_metrics.plan_expected_loss"]), s),
        "local_metrics.plan_expected_loss_calls": (
            total(["local_metrics.plan_expected_loss"], 2), count),
        "local_metrics.voi_local_s": (total(["local_metrics.voi_local"]), s),
        "local_metrics.voi_heuristic_s": (total(["local_metrics.voi_heuristic"]), s),
        "local_metrics.posterior_action_table_s": (
            total(["local_metrics.posterior_action_table"]), s),
        "global_metrics.rank_global_s": (total(["global_metrics.rank_global"]), s),
        "global_metrics.importance_measures_s": (
            total(["global_metrics.importance_measures"]), s),
        "oracle.mc_system_failure_s": (total(mc), s),
        "oracle.mc_samples_per_s": (samples / mc_total if mc_total > 0 else 0.0, n),
        "output.render_s": (layer_self("output"), s),
        "output.bytes": (output_bytes, "bytes"),
        "cli.self_s": (layer_self("cli"), s),
        "tracing_overhead_s": (len(spans) * span_cost, s),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
