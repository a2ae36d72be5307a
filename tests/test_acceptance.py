"""Acceptance suite: one test per criterion, exact tolerances throughout.

Shared fixtures solve each instance collection once per session; every
criterion then asserts over the recorded results and prints a summary
line (visible with pytest -s or -rA).
"""

import math
import random
import statistics
from dataclasses import dataclass

import pytest

from gsp import (
    Infeasible,
    Instance,
    apply_initial_fuel_transform,
    brute_force_solve,
    build_heuristic,
    build_mip,
    check_assignment,
    completion_costs,
    compute_reachable_sets,
    dp_solve,
    gen_binomial,
    rfastar_solve,
    solution_to_assignment,
    validate_lp_text,
    validate_solution,
    write_lp,
)
from gsp.heuristic import h_for
from gsp.oracle import enumerate_goal_routes, route_min_cost
from gsp.search import SearchOptions, refuel_schedule_for_route

from conftest import label_key, random_instance, unpruned_solve, worked_example

SUITE1_SIZE = 200
SUITE6_SIZE = 50
SUITE10_SIZE = 50


def _cost(result) -> float:
    return math.inf if isinstance(result, Infeasible) else result.total_cost


@dataclass
class Suite1Record:
    inst: Instance
    reach: object
    rfastar: object
    rfastar_stats: object
    noh: object
    nodom: object
    dp: object
    oracle: object
    unbounded: object
    bounded_n: object


@pytest.fixture(scope="session")
def suite1():
    records = []
    for i in range(SUITE1_SIZE):
        inst = random_instance(i)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        rf, rf_stats = rfastar_solve(inst, reach=reach)
        noh, _ = rfastar_solve(inst, SearchOptions(use_heuristic=False), reach=reach)
        nodom = unpruned_solve(inst, reach)
        dp, _ = dp_solve(inst, reach=reach)
        oracle = brute_force_solve(inst, reach=reach)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)
        relaxed = Instance(inst.graph, inst.start, inst.goal, inst.q_max, inst.graph.n)
        bounded_n, _ = rfastar_solve(relaxed, reach=reach)
        records.append(Suite1Record(inst, reach, rf, rf_stats, noh, nodom, dp,
                                    oracle, unbounded, bounded_n))
    return records


@pytest.fixture(scope="session")
def suite6():
    graph = gen_binomial(256, 0.3, seed=60001)
    mean_fuel = sum(d for _, _, d in graph.edges) / len(graph.edges)
    q_max = float(round(3 * mean_fuel))
    k_max = 6
    reach = compute_reachable_sets(graph, q_max)
    rng = random.Random(606)
    pairs = [tuple(rng.sample(range(graph.n), 2)) for _ in range(SUITE6_SIZE)]

    rows = []
    for start, goal in pairs:
        inst = Instance(graph, start, goal, q_max, k_max)
        rf, rf_stats = rfastar_solve(inst, reach=reach)
        dp, dp_stats = dp_solve(inst, reach=reach)
        assert _cost(rf) == _cost(dp)
        rows.append({
            "inst": inst,
            "labels": rf_stats.labels_generated,
            "dp_states": dp_stats.dp_states_computed,
            # End to end: the per-query heuristic build counts against rfastar.
            "rf_ms": (rf_stats.heuristic_build_time + rf_stats.search_time) * 1e3,
            "dp_ms": dp_stats.search_time * 1e3,
        })
    return {"reach": reach, "rows": rows}


@pytest.fixture(scope="session")
def suite10():
    records = []
    for i in range(SUITE10_SIZE):
        inst = random_instance(10_000 + i, with_q0=True)
        native, _ = rfastar_solve(inst)
        transformed, _ = rfastar_solve(apply_initial_fuel_transform(inst))
        oracle = brute_force_solve(inst)
        records.append((inst, native, transformed, oracle))
    return records


def test_criterion_01_oracle_equivalence(suite1):
    feasible = 0
    for i, rec in enumerate(suite1):
        costs = {_cost(rec.rfastar), _cost(rec.noh), _cost(rec.dp), _cost(rec.oracle)}
        assert len(costs) == 1, f"instance {i}: solver costs diverge: {costs}"
        if not isinstance(rec.rfastar, Infeasible):
            feasible += 1
            assert validate_solution(rec.inst, rec.rfastar, rec.reach) == _cost(rec.rfastar)
    print(f"criterion 1: PASS - {SUITE1_SIZE} instances, {feasible} feasible, "
          "all four solvers agree exactly")


def test_criterion_02_refuel_rule_validation(suite1):
    routes = positive = 0
    for rec in suite1:
        for route in enumerate_goal_routes(rec.inst, rec.reach):
            routes += 1
            minimum = route_min_cost(route, rec.inst)
            assert not isinstance(minimum, Infeasible)
            rule_cost, amounts = refuel_schedule_for_route(
                route.vertices, route.hop_fuels, rec.inst
            )
            assert rule_cost >= minimum
            if all(a > 0.0 for a in amounts):
                positive += 1
                assert rule_cost == minimum
    print(f"criterion 2: PASS - {routes} routes, rule cost never below the "
          f"free minimum, exact equality on all {positive} realisable schedules")


def test_criterion_03_heuristic_admissibility(suite1):
    states = 0
    for rec in suite1:
        ctx = build_heuristic(rec.reach, rec.inst.goal)
        for (v, fuel, _), cost in completion_costs(rec.inst).items():
            if math.isfinite(cost):
                states += 1
                assert h_for(ctx, v, float(fuel)) <= cost
    print(f"criterion 3: PASS - h admissible on {states} oracle states")


def test_criterion_04_pruning_safety_and_heuristic_neutrality(suite1):
    for i, rec in enumerate(suite1):
        assert _cost(rec.nodom) == _cost(rec.rfastar), f"instance {i}: pruning changed cost"
        assert _cost(rec.noh) == _cost(rec.rfastar), f"instance {i}: heuristic changed cost"
    print(f"criterion 4: PASS - dominance-off and heuristic-off match on "
          f"{SUITE1_SIZE} instances")


def test_criterion_05_worked_example(generated_labels):
    inst = worked_example()
    result, _ = rfastar_solve(inst)
    assert result.total_cost == 15.0
    keys = {label_key(l) for l in generated_labels}
    assert (1, 12.0, 4.0, 1) in keys, "expected label (a, 12, 4, 1)"
    assert (2, 10.0, 0.0, 1) in keys, "expected label (b, 10, 0, 1)"
    tight, _ = rfastar_solve(worked_example(k_max=1))
    assert isinstance(tight, Infeasible)
    print("criterion 5: PASS - optimum 15, labels (a,12,4,1) and (b,10,0,1) "
          "generated, single-stop budget infeasible")


def test_criterion_06_desk_scale_states_and_speed(suite6):
    rows = suite6["rows"]
    med_labels = statistics.median(r["labels"] for r in rows)
    med_states = statistics.median(r["dp_states"] for r in rows)
    med_rf = statistics.median(r["rf_ms"] for r in rows)
    med_dp = statistics.median(r["dp_ms"] for r in rows)
    assert med_labels < med_states, (med_labels, med_states)
    speedup = med_dp / med_rf
    assert speedup >= 1.5, f"rfastar speedup {speedup:.2f}x below the 1.5x floor"
    print(f"criterion 6: PASS - median labels {med_labels:.0f} < median DP states "
          f"{med_states:.0f}; rfastar speedup {speedup:.1f}x (target 2x, floor 1.5x)")


def test_criterion_07_unbounded_variant(suite1):
    for i, rec in enumerate(suite1):
        assert _cost(rec.unbounded) == _cost(rec.bounded_n), (
            f"instance {i}: unbounded differs from stop budget n"
        )
        assert _cost(rec.unbounded) <= _cost(rec.rfastar), (
            f"instance {i}: dropping the stop limit raised the cost"
        )
    print(f"criterion 7: PASS - unbounded equals budget-n and never exceeds "
          f"the bounded cost on {SUITE1_SIZE} instances")


def test_criterion_08_monotonicity(suite1):
    for i, rec in enumerate(suite1):
        inst = rec.inst
        more_stops = Instance(inst.graph, inst.start, inst.goal, inst.q_max,
                              inst.k_max + 1)
        cost_more_stops = _cost(rfastar_solve(more_stops, reach=rec.reach)[0])
        assert cost_more_stops <= _cost(rec.rfastar), f"instance {i}: k_max monotonicity"
        bigger_tank = Instance(inst.graph, inst.start, inst.goal, inst.q_max + 2,
                               inst.k_max)
        cost_bigger_tank = _cost(rfastar_solve(bigger_tank)[0])
        assert cost_bigger_tank <= _cost(rec.rfastar), f"instance {i}: q_max monotonicity"
    print(f"criterion 8: PASS - cost non-increasing in both budgets on "
          f"{SUITE1_SIZE} instances")


def test_criterion_09_mip_cross_check(suite1):
    solved = 0
    for i, rec in enumerate(suite1):
        model = build_mip(rec.inst, include_smart_refuel=True, reach=rec.reach)
        lp = write_lp(model)
        assert validate_lp_text(lp) == [], f"instance {i}: LP grammar"
        assert lp == write_lp(build_mip(rec.inst, include_smart_refuel=True,
                                        reach=rec.reach)), f"instance {i}: LP bytes"
        if isinstance(rec.rfastar, Infeasible):
            continue
        solved += 1
        assignment = solution_to_assignment(rec.inst, rec.rfastar)
        report = check_assignment(model, assignment)
        assert report.ok, f"instance {i}: violations {report.violations}"
        assert report.objective == rec.rfastar.total_cost, f"instance {i}: objective"
    print(f"criterion 9: PASS - {solved} optima satisfy the model with the "
          "purchase-rule cuts; LP output grammatical and byte-stable")


def test_criterion_10_initial_fuel_transform(suite10):
    for i, (inst, native, transformed, oracle) in enumerate(suite10):
        costs = {_cost(native), _cost(transformed), _cost(oracle)}
        assert len(costs) == 1, f"instance {i}: {costs}"
    print(f"criterion 10: PASS - native q0, pseudo-vertex transform and oracle "
          f"agree on {SUITE10_SIZE} instances")


def test_criterion_11_label_budget(suite1, suite6):
    def budget(inst, reach):
        # k_max * sum over v of (in-degree + 1): every arc has one head.
        return inst.k_max * (reach.edge_count() + inst.graph.n)

    for i, rec in enumerate(suite1):
        assert rec.rfastar_stats.labels_generated <= budget(rec.inst, rec.reach), (
            f"suite1 instance {i}"
        )
    reach6 = suite6["reach"]
    for i, row in enumerate(suite6["rows"]):
        assert row["labels"] <= budget(row["inst"], reach6), f"suite6 instance {i}"
    print(f"criterion 11: PASS - labels within k_max * sum(indegree+1) on "
          f"{SUITE1_SIZE} + {len(suite6['rows'])} instances")
