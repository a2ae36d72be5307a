import math
from time import perf_counter

import pytest

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    Route,
    SolveTimeout,
    brute_force_solve,
    completion_costs,
    compute_reachable_sets,
    dp_solve,
    rfastar_solve,
    route_min_cost,
    validate_solution,
)
from gsp.heuristic import build_heuristic, h_for
from gsp.oracle import InstanceTooLarge, enumerate_goal_routes
from gsp.search import refuel_schedule_for_route

from conftest import A, B, O, T, decimal_price_graph, random_instance, worked_example


class TestRouteMinCost:
    def test_route_via_cheap_station(self, wx):
        assert route_min_cost(Route((O, B, T), (5.0, 5.0)), wx) == 15.0

    def test_route_via_pricey_station(self, wx):
        # Buying 6 at o and 1 at a beats buying less at o.
        assert route_min_cost(Route((O, A, T), (2.0, 5.0)), wx) == 15.0

    def test_hop_beyond_tank_is_infeasible(self, wx):
        result = route_min_cost(Route((O, T), (7.0,)), wx)
        assert isinstance(result, Infeasible)

    def test_decimal_route_is_priced_in_tenths(self):
        g = FuelGraph.build([1.1, 1.0], [(0, 1, 1.5)])
        inst = Instance(g, 0, 1, 3.0, 1)
        assert route_min_cost(Route((0, 1), (1.5,)), inst) == 1.65


class TestGuards:
    def test_too_many_vertices(self):
        g = FuelGraph.build([1.0] * 12, [(i, i + 1, 1.0) for i in range(11)])
        with pytest.raises(InstanceTooLarge):
            brute_force_solve(Instance(g, 0, 11, 5.0, 3))

    def test_too_many_stops(self, wx):
        with pytest.raises(InstanceTooLarge):
            brute_force_solve(Instance(wx.graph, O, T, 6.0, 6))

    def test_tank_too_large(self, wx):
        with pytest.raises(InstanceTooLarge):
            brute_force_solve(Instance(wx.graph, O, T, 60.0, 2))

    def test_decimal_fuels_count_the_tank_in_tenths(self):
        """Fuels in tenths make a tank of 5 fifty levels, which the guard
        takes, and a tank of 6 sixty, which it refuses."""
        g = FuelGraph.build([2.0, 1.0, 3.0], [(0, 1, 2.5), (1, 2, 3.5), (0, 2, 5.5)])
        result = brute_force_solve(Instance(g, 0, 2, 5.0, 2, 0.5))
        assert result.stops == ((0, 2.0), (1, 3.5)) and result.total_cost == 7.5
        assert result.total_cost == dp_solve(Instance(g, 0, 2, 5.0, 2, 0.5))[0].total_cost
        with pytest.raises(InstanceTooLarge, match="q_max 60.0"):
            brute_force_solve(Instance(g, 0, 2, 6.0, 2, 0.5))


class TestBruteForce:
    def test_past_deadline_times_out_in_the_route_loop(self):
        # K6 with unit fuels has 521 walks of five hops from 0 to 5 alone,
        # so the check after the 256th route fires.
        g = FuelGraph.build([1.0] * 6, [(u, v, 1.0) for u in range(6) for v in range(6) if u != v])
        inst = Instance(g, 0, 5, 5.0, 5)
        assert sum(1 for _ in enumerate_goal_routes(inst, compute_reachable_sets(g, 5.0))) >= 256
        with pytest.raises(SolveTimeout) as info:
            brute_force_solve(inst, deadline=perf_counter() - 1.0)
        assert info.value.stats.search_time > 0.0

    def test_worked_example(self, wx):
        result = brute_force_solve(wx)
        assert result.total_cost == 15.0
        assert validate_solution(wx, result) == 15.0

    def test_short_decimal_prices(self):
        # Buy 1 at 1.1 on 9 units of initial fuel.  Pricing the route and
        # reading its schedule back once rounded differently and crashed.
        inst = Instance(decimal_price_graph(), 0, 2, q_max=10.0, k_max=2, q0=9.0)
        result = brute_force_solve(inst)
        assert result.total_cost == 1.1
        assert validate_solution(inst, result) == 1.1

    def test_disconnected_is_infeasible(self):
        g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0)], undirected=True)
        assert isinstance(brute_force_solve(Instance(g, 0, 2, 5.0, 3)), Infeasible)

    def test_worked_example_with_roomier_tank(self):
        # Regression value first produced by this oracle: a tank of 10
        # lets the route buy more at the cheap stations, cost 14.
        result = brute_force_solve(worked_example(q_max=10.0))
        assert result.total_cost == 14.0

    def test_routes_may_revisit_vertices(self):
        # Walks are enumerated, not simple paths: out-and-back sequences
        # and walks through the goal are part of the route universe.
        g = FuelGraph.build([1.0, 2.0], [(0, 1, 2.0)], undirected=True)
        inst = Instance(g, 0, 1, 4.0, 3)
        reach = compute_reachable_sets(g, inst.q_max)
        routes = list(enumerate_goal_routes(inst, reach))
        assert any(len(set(r.vertices)) < len(r.vertices) for r in routes)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_beaten_by_other_solvers(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        oracle_result = brute_force_solve(inst, reach=reach)
        for result, _ in (rfastar_solve(inst, reach=reach), dp_solve(inst, reach=reach)):
            if isinstance(oracle_result, Infeasible):
                assert isinstance(result, Infeasible)
            else:
                assert not isinstance(result, Infeasible)
                assert oracle_result.total_cost <= validate_solution(inst, result, reach)


class TestFillRuleAgainstFreeMinimum:
    @pytest.mark.parametrize("seed", range(15))
    def test_rule_cost_is_never_below_the_minimum(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        for route in enumerate_goal_routes(inst, reach):
            minimum = route_min_cost(route, inst)
            rule_cost, amounts = refuel_schedule_for_route(
                route.vertices, route.hop_fuels, inst
            )
            assert not isinstance(minimum, Infeasible)
            assert rule_cost >= minimum
            if all(a > 0.0 for a in amounts):
                assert rule_cost == minimum

    def test_rule_with_surplus_may_exceed_free_minimum(self):
        # Filling up at the cheap start covers the next hop entirely, so
        # the second visit buys nothing: the rule sequence is not a true
        # stop sequence for this route and costs more than the free DP.
        g = FuelGraph.build([1.0, 10.0, 2.0], [(0, 1, 1.0), (1, 2, 1.0)])
        inst = Instance(g, 0, 2, 10.0, 2)
        route = Route((0, 1, 2), (1.0, 1.0))
        rule_cost, amounts = refuel_schedule_for_route(route.vertices, route.hop_fuels, inst)
        assert amounts[1] == 0.0
        assert rule_cost > route_min_cost(route, inst)


class TestCompletionCosts:
    @pytest.mark.parametrize("with_q0", [False, True])
    def test_matches_brute_force_at_the_start_state(self, with_q0):
        for seed in range(10):
            inst = random_instance(seed, with_q0=with_q0)
            comp = completion_costs(inst)
            full = brute_force_solve(inst)
            at_start = comp.get((inst.start, int(inst.q0), inst.k_max), math.inf)
            if isinstance(full, Infeasible):
                assert math.isinf(at_start)
            else:
                assert at_start == full.total_cost

    def test_goal_states_cost_nothing(self, wx):
        comp = completion_costs(wx)
        assert comp[(T, 0, 0)] == 0.0
        assert comp[(T, 6, 2)] == 0.0

    def test_every_finite_state_dominates_the_heuristic(self):
        for seed in range(10):
            inst = random_instance(seed)
            ctx = build_heuristic(compute_reachable_sets(inst.graph, inst.q_max), inst.goal)
            for (v, fuel, _), cost in completion_costs(inst).items():
                if math.isfinite(cost):
                    assert h_for(ctx, v, float(fuel)) <= cost
