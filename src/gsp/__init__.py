"""Minimum-fuel-cost routing with tank capacity and stop limits."""

from .core import (
    NON_REFUELLABLE,
    FuelGraph,
    Infeasible,
    Instance,
    InvalidInstance,
    Label,
    SearchStats,
    Solution,
    SolveTimeout,
    dominates,
    scalarized_dominates,
    validate_solution,
)
from .dp import dp_solve, gas_values
from .generate import gen_binomial
from .heuristic import HeuristicContext, build_heuristic
from .mip import build_mip, check_assignment, solution_to_assignment, validate_lp_text, write_lp
from .oracle import Route, brute_force_solve, completion_costs, route_min_cost
from .reach import ReachGraph, compute_reachable_sets
from .search import (
    Frontier,
    SearchOptions,
    expand,
    refuel_schedule_for_route,
    rfastar_solve,
)
from .transform import TransformInapplicable, apply_initial_fuel_transform

__all__ = [
    "NON_REFUELLABLE",
    "FuelGraph", "Infeasible", "Instance", "InvalidInstance", "Label",
    "SearchStats", "Solution", "SolveTimeout",
    "dominates", "scalarized_dominates", "validate_solution",
    "dp_solve", "gas_values", "gen_binomial",
    "HeuristicContext", "build_heuristic",
    "build_mip", "check_assignment", "solution_to_assignment",
    "validate_lp_text", "write_lp",
    "Route", "brute_force_solve", "completion_costs", "route_min_cost",
    "ReachGraph", "compute_reachable_sets",
    "Frontier", "SearchOptions", "expand",
    "refuel_schedule_for_route", "rfastar_solve",
    "TransformInapplicable", "apply_initial_fuel_transform",
]
