"""Inspection priorities for binary-component networks.

Builds exact posterior beliefs from noisy component inspections and ranks
the components by the expected loss reduction the inspection buys, under
system-level actions (concave loss envelopes), component-level repair
plans, or the classical importance measures.
"""

from .distributions import (CommonCauseGroups, Explicit, Group, Independent,
                            JointDistribution, system_failure_prob)
from .envelopes import (BinaryActionLoss, GlobalAction, LossEnvelope,
                        PiecewiseLinearLoss, QuadraticLoss)
from .errors import (ConditioningError, DegenerateObservationError,
                     IncomparableIntervalsError, InfeasibleCorrelationError,
                     InvalidStateError, NetvoiError, NonMonotoneError,
                     NotApplicableError, ScenarioError, SizeCapError)
from .global_metrics import (closed_form_rule, importance_measures, rank_global,
                             voi_global)
from .inference import (ALARM, PERFECT_INSPECTION, SILENCE, Dominance,
                        InspectionModel, PosteriorInterval, alarm_probability,
                        interval_dominates, posterior_given_observation,
                        posterior_interval, posterior_system_failure)
from .local_metrics import (LocalCostModel, apply_repairs, cumulative_approx_voi,
                            optimal_plan, plan_expected_loss, plan_failure_risks,
                            plan_losses, posterior_action_table, repair_cost,
                            series_pair_policy, voi_heuristic, voi_local)
from .model import (DEFAULT_COMPONENT_CAP, FormulaTree, Network, STGraph,
                    StructureFunction, TruthTable, parallel, series)
from .oracle import SimulationConfig, mc_system_failure
from .reports import ImportanceReport, PosteriorActionTable, VoIReport
from .scenario import ScenarioDocument, parse_scenario, parse_scenario_file

__all__ = [
    "ALARM",
    "SILENCE",
    "PERFECT_INSPECTION",
    "DEFAULT_COMPONENT_CAP",
    "BinaryActionLoss",
    "CommonCauseGroups",
    "ConditioningError",
    "DegenerateObservationError",
    "Dominance",
    "Explicit",
    "FormulaTree",
    "GlobalAction",
    "Group",
    "ImportanceReport",
    "IncomparableIntervalsError",
    "Independent",
    "InfeasibleCorrelationError",
    "InspectionModel",
    "InvalidStateError",
    "JointDistribution",
    "LocalCostModel",
    "LossEnvelope",
    "NetvoiError",
    "Network",
    "NonMonotoneError",
    "NotApplicableError",
    "PiecewiseLinearLoss",
    "PosteriorActionTable",
    "PosteriorInterval",
    "QuadraticLoss",
    "ScenarioDocument",
    "ScenarioError",
    "SimulationConfig",
    "SizeCapError",
    "STGraph",
    "StructureFunction",
    "TruthTable",
    "VoIReport",
    "alarm_probability",
    "apply_repairs",
    "closed_form_rule",
    "cumulative_approx_voi",
    "importance_measures",
    "interval_dominates",
    "mc_system_failure",
    "optimal_plan",
    "parallel",
    "parse_scenario",
    "parse_scenario_file",
    "plan_expected_loss",
    "plan_failure_risks",
    "plan_losses",
    "posterior_action_table",
    "posterior_given_observation",
    "posterior_interval",
    "posterior_system_failure",
    "rank_global",
    "repair_cost",
    "series",
    "series_pair_policy",
    "system_failure_prob",
    "voi_global",
    "voi_heuristic",
    "voi_local",
]
