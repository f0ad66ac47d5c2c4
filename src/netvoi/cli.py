"""Command-line interface for scenario files.

Subcommands: ``reliability`` (prior system failure probability),
``intervals`` (posterior interval per component), ``rank`` (component
ranking under a chosen metric), ``actions`` (posterior repair plans), and
``plot`` (normalized-value bar chart as SVG).

Exit codes: 0 success, 1 validation failure, 2 size cap exceeded,
64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .distributions import system_failure_prob
from .errors import NetvoiError, ScenarioError, SizeCapError
from .global_metrics import importance_measures, rank_global
from .inference import InspectionModel, _intervals, _reported
from .local_metrics import (_voi_heuristic, _voi_local, posterior_action_table,
                            voi_heuristic, voi_local)
from .model import DEFAULT_COMPONENT_CAP
from .oracle import SimulationConfig, mc_system_failure
from .output import (format_number, json_value, render_bar_chart_svg, render_csv,
                     render_json)
from .scenario import parse_scenario_file

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SIZE_CAP = 2
EXIT_USAGE = 64

VOI_METRICS = ("global", "local", "heuristic")
IMPORTANCE_METRICS = ("bm", "crt", "raw", "rrw")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netvoi", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, priced=True):
        p.add_argument("scenario", help="path to a scenario JSON document")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to PATH instead of stdout")
        if priced:  # the commands that price an inspection
            p.add_argument("--eps-fa", type=float, default=None,
                           help="override the document's false-alarm rate")
            p.add_argument("--eps-fs", type=float, default=None,
                           help="override the document's false-silence rate")
        p.add_argument("--cap", type=int, default=DEFAULT_COMPONENT_CAP,
                       help="component cap of every command, Monte Carlo included")

    p_rel = sub.add_parser("reliability", help="prior system failure probability")
    add_common(p_rel, priced=False)
    p_rel.add_argument("--mc-samples", type=int, default=None,
                       help="estimate by Monte Carlo with this many samples")
    p_rel.add_argument("--seed", type=int, help="Monte Carlo seed, default 0; needs --mc-samples")

    p_int = sub.add_parser("intervals", help="posterior interval per component")
    add_common(p_int)

    p_rank = sub.add_parser("rank", help="rank components under a metric")
    add_common(p_rank)
    p_rank.add_argument("--metric", required=True,
                        choices=VOI_METRICS + IMPORTANCE_METRICS)

    p_act = sub.add_parser("actions", help="posterior repair plans per outcome")
    add_common(p_act)

    p_plot = sub.add_parser("plot", help="normalized-value bar chart as SVG")
    add_common(p_plot)
    for p in (p_int, p_rank, p_act):  # reliability prints numbers, plot SVG
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _load(args):
    doc = parse_scenario_file(args.scenario)
    for warning in doc.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        net = doc.build_network(cap=args.cap)
    except SizeCapError:  # the same refusal, worded for the option that set the cap
        raise SizeCapError(f"{doc.n_components} components exceed --cap {args.cap}") from None
    return doc, net, doc.build_distribution()


def _load_priced(args):
    """``_load``'s document, network and belief, and the inspection with its overrides."""
    doc, net, dist = _load(args)
    insp = InspectionModel(doc.eps_fa if args.eps_fa is None else args.eps_fa,
                           doc.eps_fs if args.eps_fs is None else args.eps_fs)
    return doc, net, dist, insp


def _emit(text: str, args) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _plan_label(plan: int, names) -> str:
    members = [names[i] for i in range(len(names)) if (plan >> i) & 1]
    return "+".join(members) if members else "-"


def _cmd_reliability(args) -> int:
    _, net, dist = _load(args)
    if args.mc_samples is not None:
        cfg = SimulationConfig(n_samples=args.mc_samples, seed=args.seed or 0)
        estimate, stderr = mc_system_failure(net, dist, cfg)
        _emit(f"{format_number(estimate)} {format_number(stderr)}\n", args)
    else:
        _emit(f"{format_number(system_failure_prob(net, dist))}\n", args)
    return EXIT_OK


def _table(args, header, rows, head=(), tail=()) -> str:
    """``rows`` under ``header`` as CSV, or as JSON: ``head``, the keyed rows, ``tail``."""
    if args.format == "csv":
        return render_csv(header, rows)
    obj = dict(head)
    obj["rows"] = [{key: json_value(v) if isinstance(v, float) else v
                    for key, v in zip(header, row)} for row in rows]
    obj.update(tail)
    return render_json(obj)


def _cmd_intervals(args) -> int:
    doc, net, dist, insp = _load_priced(args)
    _, intervals = _intervals(net, dist, insp)
    intervals = [_reported(iv, dist, i, insp) for i, iv in enumerate(intervals)]
    rows = [(name, iv.lo, iv.hi, iv.prior, iv.alarm_prob) for name, iv in zip(net.names, intervals)]
    _emit(_table(args, ("component", "silence_posterior", "alarm_posterior", "prior",
                        "alarm_probability"), rows), args)
    return EXIT_OK


def _voi_report(args, doc, net, dist, insp):
    if args.metric == "global":
        return rank_global(net, dist, insp, doc.build_envelope())
    if args.metric == "local":
        return voi_local(net, dist, insp, doc.build_costs())
    return voi_heuristic(net, dist, insp, doc.build_costs())


def _cmd_rank(args) -> int:
    doc, net, dist, insp = _load_priced(args)
    names = net.names
    tail = {}
    if args.metric in VOI_METRICS:
        report = _voi_report(args, doc, net, dist, insp)
        header = ["rank", "component", "voi", "voi_normalized", "posterior_loss"]
        columns = [report.voi, report.voi_normalized, report.posterior_loss]
        head = {"metric": report.metric, "prior_loss": json_value(report.prior_loss),
                "best": names[report.best]}
        if report.posterior_regret is not None:
            header.append("posterior_regret")
            columns.append(report.posterior_regret)
            tail["prior_regret"] = json_value(report.prior_regret)
        if report.prior_plan is not None:
            tail["prior_plan"] = _plan_label(report.prior_plan, names)
        ranking = report.ranking
    else:
        report = importance_measures(net, dist, insp)
        header = ["rank", "component", args.metric]
        columns = [report.values(args.metric)]
        head = {"metric": args.metric, "prior_failure": json_value(report.prior_failure)}
        ranking = report.rankings[args.metric]
    rows = [[rank, names[i]] + [column[i] for column in columns]
            for rank, i in enumerate(ranking, start=1)]
    _emit(_table(args, header, rows, head, tail), args)
    return EXIT_OK


def _cmd_actions(args) -> int:
    doc, net, dist, insp = _load_priced(args)
    table = posterior_action_table(net, dist, insp, doc.build_costs())
    names = net.names
    rows = [
        (names[i], _plan_label(table.silence_plans[i], names),
         _plan_label(table.alarm_plans[i], names),
         table.silence_losses[i], table.alarm_losses[i])
        for i in range(net.n_components)
    ]
    _emit(_table(args, ("component", "silence_plan", "alarm_plan", "silence_loss",
                        "alarm_loss"), rows), args)
    return EXIT_OK


def _cmd_plot(args) -> int:
    doc, net, dist, insp = _load_priced(args)
    costs = doc.build_costs()
    system = rank_global(net, dist, insp, doc.build_envelope())
    local, risks = _voi_local(net, dist, insp, costs)
    heuristic = _voi_heuristic(net, dist, insp, costs, risks)
    series = [("global", system.voi_normalized), ("local", local.voi_normalized),
              ("heuristic", heuristic.voi_normalized)]
    _emit(render_bar_chart_svg(net.names, series), args)
    return EXIT_OK


_COMMANDS = {
    "reliability": _cmd_reliability,
    "intervals": _cmd_intervals,
    "rank": _cmd_rank,
    "actions": _cmd_actions,
    "plot": _cmd_plot,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser for every ``run_command`` call, built on first use."""
    return build_parser()


def run_command(argv) -> int:
    """Run a CLI invocation and return its exit code."""
    try:
        args = _shared_parser().parse_args(argv)
        if args.cap < 1:
            raise UsageError(f"argument --cap: must be at least 1, not {args.cap}")
        if getattr(args, "seed", None) is not None and args.mc_samples is None:
            raise UsageError("argument --seed: only goes with --mc-samples")
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        for problem in exc.errors:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (NetvoiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
