"""Numeric domains: every reader of a probability, correlation, rate or cost checks one way."""

import math
import re

import numpy as np
import pytest

from netvoi import (BinaryActionLoss, CommonCauseGroups, GlobalAction, Group, Independent,
                    InspectionModel, LocalCostModel, Network, PiecewiseLinearLoss,
                    QuadraticLoss, STGraph, parallel, series, series_pair_policy)

_ACTIONS = [GlobalAction(0.2, 0.5), GlobalAction(0.0, 1.0)]

# (reader, what its error names, the domain's words, a value just outside the domain)
_READERS = [
    (lambda x: Independent([0.1, x]), "failure probability of component 1", "in [0, 1]",
     math.nextafter(1.0, 2.0)),
    (lambda x: CommonCauseGroups([Group([0, 1], x, 0.2)]), "group failure probability",
     "in [0, 1]", -5e-324),
    (lambda x: CommonCauseGroups([Group([0, 1], 0.2, x)]), "group correlation", "in [0, 1)",
     1.0),
    (lambda x: InspectionModel(x, 0.0), "false-alarm rate", "in [0, 0.5)", 0.5),
    (lambda x: InspectionModel(0.0, [0.1, x]), "false-silence rate", "in [0, 0.5)", -5e-324),
    (lambda x: LocalCostModel(x, (0.1,)), "failure cost", "positive", 0.0),
    (lambda x: LocalCostModel(1.0, (0.1, x)), "repair cost of component 1", "nonnegative",
     -5e-324),
    (lambda x: GlobalAction(x, 0.5), "action cost", "nonnegative", -5e-324),
    (lambda x: GlobalAction(0.2, x), "residual risk", "in [0, 1]", math.nextafter(1.0, 2.0)),
    (lambda x: PiecewiseLinearLoss.from_actions(_ACTIONS, x), "failure cost", "positive", 0.0),
    (lambda x: BinaryActionLoss(0.1, x), "failure cost", "positive", -1.0),
    (lambda x: QuadraticLoss().value(x), "failure probability", "in [0, 1]", -5e-324),
    (lambda x: PiecewiseLinearLoss.from_actions(_ACTIONS, 1.0).value(x), "failure probability",
     "in [0, 1]", math.nextafter(1.0, 2.0)),
    (lambda x: BinaryActionLoss(0.1, 1.0).value(x), "failure probability", "in [0, 1]",
     math.nextafter(1.0, 2.0)),
    (lambda x: series_pair_policy(x, 0.2, 0.0, 0.3), "p1", "in [0, 1]", -5e-324),
    (lambda x: series_pair_policy(0.1, x, 0.0, 0.3), "p2", "in [0, 1]",
     math.nextafter(1.0, 2.0)),
    (lambda x: series_pair_policy(0.1, 0.2, x, 0.3), "rho", "in [-1, 1]",
     math.nextafter(-1.0, -2.0)),
]


# ints past the float range read as the infinity of their sign
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400, "outside"],
                         ids=["nan", "inf", "-inf", "10**400", "-10**400", "outside"])
@pytest.mark.parametrize("reader, what, words, outside", _READERS,
                         ids=[f"{k}-{r[1]}" for k, r in enumerate(_READERS)])
def test_every_reader_refuses_a_value_outside_its_domain_in_one_wording(reader, what, words,
                                                                        outside, value):
    x = outside if value == "outside" else value
    shown = (math.inf if x > 0 else -math.inf) if isinstance(x, int) else float(x)
    message = f"{what} must be finite and {words}, not {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reader(x)


@pytest.mark.parametrize("value", [np.float32(0.05), np.int64(0), np.float64(0.25),
                                   np.bool_(False), np.array(0.125)],
                         ids=["float32", "int64", "float64", "bool_", "0-d array"])
def test_a_numpy_scalar_is_one_inspection_rate(value):
    # as Independent and LocalCostModel read it: one rate, stored as a Python float
    insp = InspectionModel(value, value)
    for rate in (insp.eps_fa, insp.eps_fs):
        assert type(rate) is float and rate == float(value)
    assert insp.uniform and insp.n_components is None


def test_a_one_dimensional_array_gives_one_rate_per_component():
    insp = InspectionModel(np.array([0.05, 0.1, 0.2]), np.array([0.0, 0.1, 0.0], np.float32))
    assert insp.eps_fa == (0.05, 0.1, 0.2) and insp.n_components == 3
    assert all(type(r) is float for r in insp.eps_fa + insp.eps_fs)


def test_an_envelope_needs_an_action():
    with pytest.raises(ValueError, match="^need at least one line$"):
        PiecewiseLinearLoss.from_actions([], 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: Independent([]), "need at least one component"),
    (lambda: Group([], 0.1), "a group needs at least one member"),
    (lambda: series(), r"series\(\) needs at least one part"),
    (lambda: parallel(), r"parallel\(\) needs at least one part"),
    (lambda: STGraph(["a"], []), "graph has no edges"),
    (lambda: Network(STGraph([], [("o", "s")])), "a network needs at least one component"),
    (lambda: InspectionModel([], 0.1), "false-alarm rate list is empty"),
], ids=["independent", "group", "series", "parallel", "st-graph", "network", "rates"])
def test_an_empty_input_is_refused_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
