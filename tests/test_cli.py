"""Command-line surface: outputs, formats, golden stability, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

from netvoi import JointDistribution, cli, distributions, inference, local_metrics, voi_heuristic
from netvoi.cli import run_command
from netvoi.output import format_number, render_bar_chart_svg
from netvoi.scenario import _MAX_FORMULA_DEPTH, parse_scenario_file

from conftest import scenario_path
from test_golden import GOLDEN_DIR, scenario_files

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reliability_prints_prior(capsys):
    code, out, err = run(capsys, "reliability", scenario_path("three_branch.json"))
    assert code == 0
    assert out == "0.19872\n"


def test_reliability_monte_carlo_mode(capsys):
    code, out, _ = run(capsys, "reliability", scenario_path("three_branch.json"),
                       "--mc-samples", "20000", "--seed", "3")
    assert code == 0
    est, se = (float(tok) for tok in out.split())
    assert abs(est - 0.19872) <= 3 * se


@pytest.mark.parametrize("samples, seed, message", [
    ("100", "-1", "seed -1 is outside [0, 2**128)"),
    ("100", str(2**128), f"seed {2**128} is outside [0, 2**128)"),
    # one draw has no spread to estimate: its standard error would print as 0.0
    ("1", "0", "need at least 2 samples, not 1"),
    ("0", "0", "need at least 2 samples, not 0"),
])
def test_simulation_settings_out_of_range_exit_1(capsys, samples, seed, message):
    code, out, err = run(capsys, "reliability", scenario_path("three_branch.json"),
                         "--mc-samples", samples, "--seed", seed)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_rank_local_top_row(capsys):
    code, out, _ = run(capsys, "rank", "--metric", "local",
                       scenario_path("three_branch.json"))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["rank", "component", "voi"]
    assert rows[1][1] == "c2"


def test_rank_bm_top_row(capsys):
    code, out, _ = run(capsys, "rank", "--metric", "bm",
                       scenario_path("three_branch.json"))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "c2"
    assert rows[1][2] == format_number(0.3888)


def test_actions_table_matches_reference(capsys):
    code, out, _ = run(capsys, "actions",
                       scenario_path("three_branch_alt_costs.json"))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    table = {row[0]: (row[1], row[2]) for row in rows[1:]}
    expected = {
        "c1": ("c4", "c3+c4"),
        "c2": ("-", "c3+c4"),
        "c3": ("c4", "c3+c4"),
        "c4": ("-", "c4"),
        "c5": ("c6", "c4"),
        "c6": ("-", "c6"),
    }
    assert table == expected


def test_csv_and_json_numbers_identical(capsys):
    code, csv_out, _ = run(capsys, "rank", "--metric", "global",
                           scenario_path("three_branch.json"))
    assert code == 0
    code, json_out, _ = run(capsys, "rank", "--metric", "global",
                            scenario_path("three_branch.json"),
                            "--format", "json")
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    obj = json.loads(json_out)
    assert len(obj["rows"]) == len(rows)
    for csv_row, json_row in zip(rows, obj["rows"]):
        assert csv_row[1] == json_row["component"]
        for k, key in ((2, "voi"), (3, "voi_normalized"), (4, "posterior_loss"),
                       (5, "posterior_regret")):
            assert csv_row[k] == format_number(float(json_row[key]))


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for path in (out_a, out_b):
        code = run_command(["rank", "--metric", "heuristic",
                            scenario_path("three_branch_alt_costs.json"),
                            "--output", str(path)])
        capsys.readouterr()
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_intervals_output(capsys):
    code, out, _ = run(capsys, "intervals", scenario_path("crossed_pair.json"))
    assert code == 0
    rows = {r[0]: r for r in list(csv.reader(io.StringIO(out)))[1:]}
    assert float(rows["c1"][1]) == pytest.approx(0.0090, abs=0.0005)
    assert float(rows["c1"][2]) == pytest.approx(0.200, abs=0.0005)
    assert float(rows["c2"][1]) == pytest.approx(0.0052, abs=0.0005)
    assert float(rows["c2"][2]) == pytest.approx(0.0338, abs=0.0005)


@pytest.mark.parametrize("command", ["intervals", "reliability", "global", "bm", "crt", "raw",
                                     "rrw"])
@pytest.mark.parametrize("name", ["layered16.json", "substation.json", "crossed_pair.json"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_command_forms_the_failure_mass_once(capsys, monkeypatch, name, fmt, command):
    # the prior, the intervals and the importance measures share one pmf read
    calls = []
    pmf_vector = JointDistribution.pmf_vector
    monkeypatch.setattr(JointDistribution, "pmf_vector",
                        lambda dist: calls.append(dist) or pmf_vector(dist))
    argv = [command] if command in ("intervals", "reliability") else ["rank", "--metric", command]
    if command != "reliability":  # reliability prints one format
        argv += ["--format", fmt]
    code, out, err = run(capsys, *argv, scenario_path(name))
    assert (code, err) == (0, "") and out
    assert len(calls) == 1


def test_eps_override_changes_ranking(capsys):
    code, out, _ = run(capsys, "rank", "--metric", "local",
                       scenario_path("three_branch.json"),
                       "--eps-fa", "0.01", "--eps-fs", "0.4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "c1"


def test_plot_writes_svg(tmp_path, capsys):
    target = tmp_path / "chart.svg"
    code, _, _ = run(capsys, "plot", scenario_path("three_branch.json"),
                     "--output", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


@pytest.mark.parametrize("name", ["layered16.json", "substation.json",
                                  "substation_explicit.json", "three_branch.json"])
def test_plot_runs_the_plan_risk_engine_once(capsys, monkeypatch, tmp_path, name):
    # the local metric and the heuristic both start from the one prior R:
    # a run of every step where every component is read off it (layered16,
    # three_branch), else the first split batch's row 0. The heuristic is
    # the rule on the local metric's own flips, so past the global ranking's
    # fold plot forms no pmf, no failure mass and no fold
    path = scenario_files(tmp_path)[name.removesuffix(".json")]
    doc = parse_scenario_file(path)
    steps = len(local_metrics._steps(doc.build_distribution()))
    priors, pricing, folds, handed = [], [], [], []
    engine, risks = local_metrics.plan_failure_risks, local_metrics._risks
    split_risks = local_metrics._split_risks
    monkeypatch.setattr(local_metrics, "plan_failure_risks",
                        lambda net, dist: priors.append("public") or engine(net, dist))

    def run_all(fail, run_steps):  # every other run is a split's, without its own step
        out = risks(fail, run_steps)
        if len(run_steps) == steps:
            priors.append(out)
        return out

    def first_rows(fail, run_steps, swept):
        rows = split_risks(fail, run_steps, swept)
        prior = next(rows, None)
        if prior is not None:
            priors.append(prior)
            yield prior
        yield from rows

    def priced(f):  # the plot's component metrics, with the folds they call
        def run_priced(*args):
            pricing.append(f)
            out = f(*args)
            pricing.pop()
            handed.append(out)
            return out
        return run_priced

    monkeypatch.setattr(local_metrics, "_risks", run_all)
    monkeypatch.setattr(local_metrics, "_split_risks", first_rows)
    for owner, attr in ((local_metrics, "_split_masses"), (local_metrics, "_failure_masses"),
                        (inference, "_split_masses"), (inference, "_failure_masses"),
                        (JointDistribution, "pmf_vector")):
        monkeypatch.setattr(owner, attr, lambda *args, f=getattr(owner, attr), attr=attr:
                            (pricing and folds.append(attr)) or f(*args))
    for attr in ("_voi_local", "_heuristic"):
        monkeypatch.setattr(cli, attr, priced(getattr(cli, attr)))
    code, out, err = run(capsys, "plot", str(path))
    monkeypatch.undo()
    assert (code, err) == (0, "") and out.startswith("<svg")
    assert len(priors) == 1 and folds == []
    (local, flips), heuristic = handed
    assert flips == local_metrics._voi_local(doc.build_network(), doc.build_distribution(),
                                             doc.build_inspection(), doc.build_costs())[1]
    assert heuristic == local_metrics._heuristic(local.prior_plan, local.prior_loss, flips,
                                                 doc.build_costs().c_fail)


@pytest.mark.parametrize("name", sorted(p.parent.name for p in GOLDEN_DIR.glob("*/plot.svg")))
def test_plot_heuristic_is_voi_heuristics(monkeypatch, tmp_path, capsys, name):
    # plot prices the heuristic from the local metric's split, voi_heuristic
    # from its own routes: the same floats where every component is read off
    # R by one routine, and the same plans to rel 1e-12 where the local
    # metric sweeps a component (a group member, a table, a rare failure)
    path = scenario_files(tmp_path)[name]
    doc = parse_scenario_file(path)
    net, dist, insp, costs = (doc.build_network(), doc.build_distribution(),
                              doc.build_inspection(), doc.build_costs())
    plotted, rule = [], cli._heuristic
    monkeypatch.setattr(cli, "_heuristic", lambda *args: plotted.append(rule(*args))
                        or plotted[-1])
    code, _, err = run(capsys, "plot", str(path))
    assert (code, err) == (0, "")
    alone = voi_heuristic(net, dist, insp, costs)
    read_off = all(len(members) == 1 and table[0] >= 2.0 ** -10 * table.sum()
                   for members, table in dist.blocks())
    assert read_off == (name not in ("substation", "substation_explicit"))
    if read_off:
        assert plotted == [alone]
        return
    report, = plotted
    table, want = report.action_table, alone.action_table
    assert (report.prior_plan, table.silence_plans, table.alarm_plans) == (
        alone.prior_plan, want.silence_plans, want.alarm_plans)
    for got, expected in ((report.voi, alone.voi), ([report.prior_loss], [alone.prior_loss]),
                          (table.silence_losses, want.silence_losses),
                          (table.alarm_losses, want.alarm_losses)):
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("metric", ["bm", "crt", "raw", "rrw"])
def test_importance_ranks_exit_1_where_the_system_never_fails(capsys, tmp_path, metric):
    # every importance measure divides by the prior failure probability
    obj = json.loads(Path(scenario_path("three_branch.json")).read_text())
    for component in obj["components"]:
        component["failure_probability"] = 0.0
    path = tmp_path / "sound.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "rank", "--metric", metric, str(path))
    assert (code, out) == (1, "")
    assert err == "error: importance measures need a positive prior failure probability\n"


def test_non_finite_numbers_print_as_words():
    assert [format_number(x) for x in (float("nan"), float("inf"), -float("inf"))] == [
        "nan", "inf", "-inf"]


def test_bar_chart_refuses_a_series_of_the_wrong_length():
    with pytest.raises(ValueError, match="^series 'local' has 1 values for 2 components$"):
        render_bar_chart_svg(["a", "b"], [("global", [1.0, 0.5]), ("local", [1.0])])


def test_plot_escapes_markup_in_names(tmp_path, capsys):
    # a component named with markup characters still makes well-formed SVG
    obj = json.loads(Path(scenario_path("three_branch.json")).read_text())
    obj["components"][1]["name"] = "Pump <A> & B"
    path = tmp_path / "named.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "plot", str(path))
    assert (code, err) == (0, "")
    labels = [node.firstChild.data for node in
              xml.dom.minidom.parseString(out).getElementsByTagName("text")]
    assert "Pump <A> & B" in labels


def test_golden_plots_are_well_formed_svg():
    plots = sorted(GOLDEN_DIR.glob("*/plot.svg"))
    assert len(plots) >= 8
    for plot in plots:
        assert xml.dom.minidom.parse(str(plot)).documentElement.tagName == "svg", plot


def test_plot_takes_no_format(capsys):
    # plot writes SVG only, so a format is a usage error, not silently ignored
    code, out, err = run(capsys, "plot", scenario_path("three_branch.json"), "--format", "json")
    assert (code, out) == (64, "")
    assert "unrecognized arguments: --format json" in err


@pytest.mark.parametrize("option", [["--format", "json"], ["--eps-fa", "0.1"],
                                    ["--eps-fs", "0.1"]], ids=["format", "eps-fa", "eps-fs"])
def test_reliability_takes_no_format_and_no_rates(capsys, option):
    # reliability prints one or two numbers and prices no inspection
    for mc in ([], ["--mc-samples", "100"]):
        code, out, err = run(capsys, "reliability", scenario_path("three_branch.json"),
                             *mc, *option)
        assert (code, out) == (64, "")
        assert f"unrecognized arguments: {' '.join(option)}" in err


def test_reliability_seed_needs_mc_samples(capsys):
    # an exact answer draws nothing, so a seed without --mc-samples is a mistake
    code, out, err = run(capsys, "reliability", scenario_path("three_branch.json"), "--seed", "5")
    assert (code, out) == (64, "")
    assert "--seed" in err and "--mc-samples" in err


def test_unknown_flag_exits_64(capsys):
    code, _, err = run(capsys, "rank", "--nope", scenario_path("three_branch.json"))
    assert code == 64
    assert "usage" in err.lower()


def test_missing_metric_exits_64(capsys):
    code, _, _ = run(capsys, "rank", scenario_path("three_branch.json"))
    assert code == 64


def test_validation_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", "components": []}')
    code, _, err = run(capsys, "reliability", str(bad))
    assert code == 1
    assert "components" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "reliability", "/nonexistent/path.json")
    assert code == 1
    assert err


def test_cap_exceeded_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--metric", "local",
                       scenario_path("layered16.json"), "--cap", "8")
    assert code == 2
    # the CLI names its own option, not the library's cap= argument
    assert err == "error: 16 components exceed --cap 8\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("argv", [["reliability"], ["rank", "--metric", "local"]])
def test_cap_below_1_is_a_usage_error(capsys, argv, cap):
    for path in (scenario_path("three_branch.json"), "/nonexistent/path.json"):
        code, out, err = run(capsys, *argv, path, "--cap", cap)
        assert (code, out) == (64, "")
        assert err == f"argument --cap: must be at least 1, not {cap}\n"


def component_column(out):
    return [row[1] for row in list(csv.reader(io.StringIO(out)))[1:]]


def test_rows_printing_equal_values_list_in_index_order(capsys):
    # c8 and c16 sit symmetrically in layered16 and print the same local VoI
    code, out, _ = run(capsys, "rank", "--metric", "local",
                       scenario_path("layered16.json"))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[1] for row in rows[:2]] == ["c8", "c16"]
    assert rows[0][2] == rows[1][2]
    values = [float(row[2]) for row in rows]
    assert values == sorted(values, reverse=True)


def test_explicit_form_of_substation_ranks_alike(tmp_path, capsys):
    # the same joint as shared-cause groups and as an explicit table runs
    # through different engine paths; the ranking must not see the noise
    doc = parse_scenario_file(scenario_path("substation.json"))
    obj = json.loads(doc.to_json())
    obj["dependence"] = {"kind": "explicit",
                         "weights": doc.build_distribution().pmf_vector().tolist()}
    explicit = tmp_path / "substation_explicit.json"
    explicit.write_text(json.dumps(obj))
    for metric in ("local", "global", "bm"):
        code, grouped, _ = run(capsys, "rank", "--metric", metric,
                               scenario_path("substation.json"))
        assert code == 0
        code, flat, _ = run(capsys, "rank", "--metric", metric, str(explicit))
        assert code == 0
        assert component_column(flat) == component_column(grouped), metric


def test_explicit_form_of_substation_samples_alike(tmp_path, capsys):
    # a belief and its explicit table draw the same masks up to 16 components
    doc = parse_scenario_file(scenario_path("substation.json"))
    obj = json.loads(doc.to_json())
    obj["dependence"] = {"kind": "explicit",
                         "weights": doc.build_distribution().pmf_vector().tolist()}
    explicit = tmp_path / "substation_explicit.json"
    explicit.write_text(json.dumps(obj))
    outputs = []
    for path in (scenario_path("substation.json"), str(explicit)):
        code, out, _ = run(capsys, "reliability", path, "--mc-samples", "20000", "--seed", "3")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_shared_parser_prints_what_a_fresh_process_prints(capsys):
    commands = [
        ["rank", "--metric", "heuristic", scenario_path("three_branch.json")],
        ["rank", "--metric", "nope", scenario_path("three_branch.json")],
        ["actions", scenario_path("three_branch_alt_costs.json"), "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    in_process = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in in_process] == [0, 64, 0]
    for argv, (code, out, err) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "netvoi.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err), argv


def test_certain_outcome_is_worth_zero_in_every_command(tmp_path, capsys):
    # component a never fails, so inspecting it perfectly always reads silence
    doc = {
        "schema_version": "1",
        "components": [{"id": "a", "failure_probability": 0.0},
                       {"id": "b", "failure_probability": 0.2},
                       {"id": "c", "failure_probability": 0.3}],
        "structure": {"formula": "series(a, parallel(b, c))"},
        "dependence": {"kind": "independent"},
        "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
        "costs": {"c_fail": 1.0, "c_repair": 0.01},
        "envelope": "quadratic",
    }
    path = tmp_path / "certain.json"
    path.write_text(json.dumps(doc))
    for metric in ("local", "heuristic", "global", "bm"):
        code, out, err = run(capsys, "rank", "--metric", metric, str(path))
        assert (code, err) == (0, ""), metric
        rows = {row[1]: row for row in list(csv.reader(io.StringIO(out)))[1:]}
        assert rows["a"][2] == "0.0", metric
        assert float(rows["b"][2]) > 0.0, metric
    code, out, _ = run(capsys, "actions", str(path))
    assert code == 0
    prior = json.loads(run(capsys, "rank", "--metric", "local", str(path),
                           "--format", "json")[1])["prior_plan"]
    rows = {row[0]: row for row in list(csv.reader(io.StringIO(out)))[1:]}
    assert rows["a"][1] == rows["a"][2] == prior
    assert rows["a"][3] == rows["a"][4]
    code, _, _ = run(capsys, "plot", str(path), "--output", str(tmp_path / "chart.svg"))
    assert code == 0
    # an interval prints both posteriors, and one of them does not exist
    code, out, err = run(capsys, "intervals", str(path))
    assert (code, out) == (1, "")
    assert err == "error: inspecting component 0 has a certain outcome (alarm probability 0.0)\n"


def test_failure_mass_summing_past_1_is_a_certain_failure(tmp_path, capsys):
    # the weights sum to 1 within the explicit-table tolerance, and the failure
    # mass of this never-working system sums to 1.0000000000000002
    doc = {
        "schema_version": "1",
        "components": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "structure": {"truth_table": "00000000"},
        "dependence": {"kind": "explicit",
                       "weights": [w / 13 for w in (1, 2, 0, 0, 3, 0, 3, 4)]},
        "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
        "costs": {"c_fail": 1.0, "c_repair": 0.1},
        "envelope": "quadratic",
    }
    path = tmp_path / "always_down.json"
    path.write_text(json.dumps(doc))
    for argv in (["rank", "--metric", "global"], ["plot"]):
        code, _, err = run(capsys, *argv, str(path))
        assert (code, err) == (0, ""), argv
    assert run(capsys, "reliability", str(path)) == (0, "1.0\n", "")


def test_a_certain_alarm_whose_probability_rounds_below_1_is_certain(tmp_path, capsys):
    # the weights sum to 1 - 1.1e-16, within the explicit-table tolerance; c3
    # always fails, yet its alarm probability reads 0.9999999999999999
    doc = {
        "schema_version": "1",
        "components": [{"id": "c1"}, {"id": "c2"}, {"id": "c3"}],
        "structure": {"formula": "series(c1, parallel(c2, c3))"},
        "dependence": {"kind": "explicit", "weights": [0.7, 0.1, 0.1, 0.1, 0, 0, 0, 0]},
        "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
        "costs": {"c_fail": 1.0, "c_repair": 0.1},
        "envelope": "quadratic",
    }
    path = tmp_path / "certain_alarm.json"
    path.write_text(json.dumps(doc))
    for metric in ("global", "local", "heuristic", "bm"):
        code, out, err = run(capsys, "rank", "--metric", metric, "--format", "json", str(path))
        assert (code, err) == (0, ""), metric
        key = "bm" if metric == "bm" else "voi"
        voi = {row["component"]: row[key] for row in json.loads(out)["rows"]}
        assert voi["c3"] == 0.0 and voi["c1"] > 0.0, metric
    code, out, err = run(capsys, "intervals", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: inspecting component 2 has a certain outcome "
                   "(alarm probability 0.9999999999999999)\n")


@pytest.mark.parametrize("costs", [{"c_fail": 1.0, "c_repair": 1e308},
                                   {"c_fail": 1.7e308, "c_repair": [1e307] + [0.0] * 5}])
def test_costs_whose_worst_loss_overflows_exit_1_at_parse(tmp_path, costs):
    # each cost is finite, but c_fail plus all repairs is not: refused before
    # any loss is formed, so no overflow warning reaches stderr
    obj = json.loads(Path(scenario_path("three_branch.json")).read_text())
    obj["costs"] = costs
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(obj))
    fresh = subprocess.run([sys.executable, "-m", "netvoi.cli", "rank", "--metric", "local",
                            str(path)], env=dict(os.environ, PYTHONPATH=SRC_DIR),
                           capture_output=True, text=True, timeout=60)
    assert (fresh.returncode, fresh.stdout) == (1, "")
    assert fresh.stderr == "error: costs.c_repair: c_fail plus the sum of c_repair must be finite\n"


def test_binary_envelope_outside_0_1_exits_1_at_parse(tmp_path, capsys):
    obj = json.loads(Path(scenario_path("series_parallel3.json")).read_text())
    obj["envelope"] = "binary"
    obj["costs"] = {"c_fail": 1.0, "c_repair": 0.0}
    path = tmp_path / "binary.json"
    path.write_text(json.dumps(obj))
    for argv in (["rank", "--metric", "local"], ["rank", "--metric", "global"], ["plot"]):
        code, _, err = run(capsys, *argv, str(path))
        assert code == 1 and err.startswith("error: costs.c_repair: "), argv


def series_of_three(tmp_path, formula, **names):
    doc = {
        "schema_version": "1",
        "components": [{"id": f"c{k}", "name": names.get(f"c{k}", f"c{k}"),
                        "failure_probability": k / 10} for k in (1, 2, 3)],
        "structure": {"formula": formula},
        "dependence": {"kind": "independent"},
        "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
        "costs": {"c_fail": 1.0, "c_repair": 0.1},
        "envelope": "quadratic",
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    return str(path)


def called_from_depth(frames, fn):
    """``fn()`` called with ``frames`` more frames on the stack."""
    return fn() if frames == 0 else called_from_depth(frames - 1, fn)


@pytest.mark.parametrize("depth", [100, _MAX_FORMULA_DEPTH])
def test_deeply_nested_formula_evaluates(tmp_path, capsys, depth):
    path = series_of_three(tmp_path, "series(" * depth + "c1, c2, c3" + ")" * depth)
    assert run(capsys, "reliability", path) == (0, "0.496\n", "")
    nested = run(capsys, "rank", "--metric", "local", path)
    # the deepest formula leaves a caller most of the default recursion limit
    assert called_from_depth(300, lambda: run(capsys, "rank", "--metric", "local", path)) == nested
    flat = run(capsys, "rank", "--metric", "local", series_of_three(tmp_path, "series(c1, c2, c3)"))
    assert nested == flat and nested[0] == 0


@pytest.mark.parametrize("depth", [_MAX_FORMULA_DEPTH + 1, 1000])
def test_too_deeply_nested_formula_exits_1(tmp_path, capsys, depth):
    path = series_of_three(tmp_path, "series(" * depth + "c1, c2, c3" + ")" * depth)
    code, out, err = run(capsys, "reliability", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: structure.formula: nested deeper than {_MAX_FORMULA_DEPTH}")


def test_duplicate_component_names_exit_1(tmp_path, capsys):
    path = series_of_three(tmp_path, "series(c1, c2, c3)", c3="c1")
    assert run(capsys, "reliability", path) == (
        1, "", "error: components[2].name: duplicate name 'c1'\n")


def test_group_past_the_cap_exits_2_without_its_table(tmp_path, capsys, monkeypatch):
    # one 30-member group is a 2^30 table: the cap stops the command before it
    monkeypatch.setattr(distributions, "_shared_cause_table", _no_table)
    ids = [f"c{k}" for k in range(30)]
    doc = {
        "schema_version": "1",
        "components": [{"id": c} for c in ids],
        "structure": {"formula": f"series({', '.join(ids)})"},
        "dependence": {"kind": "groups", "groups": [{"members": ids, "p": 0.1, "rho": 0.5}]},
        "inspection": {"eps_fa": 0.0, "eps_fs": 0.0},
        "costs": {"c_fail": 1.0, "c_repair": 0.1},
        "envelope": "quadratic",
    }
    path = tmp_path / "wide_group.json"
    path.write_text(json.dumps(doc))
    for argv in (["reliability"], ["rank", "--metric", "local"], ["rank", "--metric", "global"]):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "") and "cap" in err, argv


def _no_table(group):
    raise AssertionError(f"built the table of a {len(group.members)}-member group")
