import math
from collections import Counter
from time import perf_counter

import pytest

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    SolveTimeout,
    brute_force_solve,
    compute_reachable_sets,
    dp_solve,
    gas_values,
    rfastar_solve,
    validate_solution,
)
from gsp.dp import _Table, build_layers

from conftest import A, B, O, T, random_instance, worked_example


class TestGasValues:
    def test_worked_example_levels(self, wx, wx_reach):
        g = wx.graph
        assert gas_values(wx_reach, g, A, goal=T) == [0.0, 4.0]  # fill-up from o
        assert gas_values(wx_reach, g, B, goal=T) == [0.0]  # no cheaper predecessor
        assert gas_values(wx_reach, g, T, goal=T) == [0.0]  # goal arrivals are empty

    def test_vertex_without_predecessors(self):
        g = FuelGraph.build([1.0, 2.0], [(0, 1, 1.0)])
        reach = compute_reachable_sets(g, 2.0)
        assert gas_values(reach, g, 0) == [0.0]

    def test_levels_are_sorted_and_deduplicated(self):
        inst = random_instance(3)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        for v in range(inst.graph.n):
            levels = gas_values(reach, inst.graph, v, goal=inst.goal)
            assert levels == sorted(set(levels))
            assert levels[0] == 0.0


class TestDpSolve:
    def test_worked_example_cost_and_cells(self, wx, wx_reach):
        result, stats = dp_solve(wx, reach=wx_reach)
        assert result.total_cost == 15.0
        table, layers = build_layers(wx, wx_reach)
        assert layers[1][table.state(A, 4.0)] == 12.0
        assert layers[1][table.state(B, 0.0)] == 10.0
        assert layers[2][table.state(T, 0.0)] == 15.0
        assert stats.dp_states_computed == wx.k_max * table.size

    def test_past_deadline_times_out_before_any_layer(self, wx, wx_reach):
        with pytest.raises(SolveTimeout) as info:
            dp_solve(wx, reach=wx_reach, deadline=perf_counter() - 1.0)
        assert info.value.stats.dp_states_computed == 0
        assert info.value.stats.search_time > 0.0

    def test_degenerate_start_equals_goal(self, wx):
        inst = Instance(wx.graph, O, O, 6.0, 2)
        result, _ = dp_solve(inst)
        assert result.total_cost == 0.0

    def test_single_stop_budget_is_infeasible(self):
        result, _ = dp_solve(worked_example(k_max=1))
        assert isinstance(result, Infeasible)

    def test_solution_replays_to_reported_cost(self, wx, wx_reach):
        result, _ = dp_solve(wx, reach=wx_reach)
        assert validate_solution(wx, result, wx_reach) == result.total_cost

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_search_and_oracle(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        dp_result, _ = dp_solve(inst, reach=reach)
        search_result, _ = rfastar_solve(inst, reach=reach)
        oracle_result = brute_force_solve(inst, reach=reach)
        if isinstance(dp_result, Infeasible):
            assert isinstance(search_result, Infeasible)
            assert isinstance(oracle_result, Infeasible)
        else:
            assert dp_result.total_cost == search_result.total_cost
            assert dp_result.total_cost == oracle_result.total_cost
            assert validate_solution(inst, dp_result, reach) == dp_result.total_cost

    @pytest.mark.parametrize("seed", range(8))
    def test_state_count_bound(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        _, stats = dp_solve(inst, reach=reach)
        bound = inst.k_max * sum(
            len(gas_values(reach, inst.graph, v, goal=inst.goal))
            for v in range(inst.graph.n)
        )
        assert stats.dp_states_computed <= bound

    @pytest.mark.parametrize("seed", range(8))
    def test_level_sets_bounded_by_indegree(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        indegree = Counter(v for entries in reach.succ for v, _ in entries)
        for v in range(inst.graph.n):
            levels = gas_values(reach, inst.graph, v, goal=inst.goal)
            assert len(levels) <= indegree[v] + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_in_stop_budget(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        table, layers = build_layers(inst, reach)
        goal_state = table.state(inst.goal, 0.0)
        best = math.inf
        bests = []
        for layer in layers:
            best = min(best, float(layer[goal_state]))
            bests.append(best)
        assert bests == sorted(bests, reverse=True)

    def test_initial_fuel_matches_oracle(self):
        for seed in range(6):
            inst = random_instance(seed, with_q0=True)
            dp_result, _ = dp_solve(inst)
            oracle_result = brute_force_solve(inst)
            if isinstance(dp_result, Infeasible):
                assert isinstance(oracle_result, Infeasible)
            else:
                assert dp_result.total_cost == oracle_result.total_cost


def _coasts(inst, reach):
    """Free-coast arrivals (vertex, level) on the initial fuel, in succ order."""
    return [(v, inst.q0 - d) for v, d in reach.succ[inst.start]
            if d <= inst.q0 and v != inst.goal]


def _reference_moves(inst, reach, table):
    """Every move of the purchase rule, from Python loops over succ."""
    g, q_max = inst.graph, inst.q_max
    moves = set()
    for s in range(table.size):
        u, q = table.vertex_of(s), table.fuel_of(s)
        cu = g.price[u]
        if u == inst.goal or not math.isfinite(cu):
            continue
        for v, d in reach.succ[u]:
            if v == inst.goal:
                a, arrive, ok = d - q, 0.0, d >= q
            elif cu < g.price[v]:
                a, arrive, ok = q_max - q, q_max - d, q < q_max
            else:
                a, arrive, ok = d - q, 0.0, d > q
            if ok:
                moves.add((s, table.state(v, arrive), a * cu, a, d))
    return moves


class TestArrayTable:
    @pytest.mark.parametrize("with_q0", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_levels_match_gas_values(self, seed, with_q0):
        inst = random_instance(seed, with_q0=with_q0)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        table = _Table(inst, reach)
        coasts = _coasts(inst, reach)
        for v in range(inst.graph.n):  # the goal and the start included
            expected = set(gas_values(reach, inst.graph, v, goal=inst.goal))
            if v == inst.start:
                expected.add(inst.q0)
            expected |= {q for w, q in coasts if w == v}
            lo, hi = table.offset[v], table.offset[v + 1]
            assert table.state_q[lo:hi].tolist() == sorted(expected)
            assert (table.state_v[lo:hi] == v).all()
        assert table.size == table.offset[-1] == len(table.state_v)
        assert table.initial.tolist() == (
            [table.state(inst.start, inst.q0)] + [table.state(v, q) for v, q in coasts])

    @pytest.mark.parametrize("with_q0", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_moves_match_the_purchase_rule(self, seed, with_q0):
        inst = random_instance(seed, with_q0=with_q0)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        table = _Table(inst, reach)
        moves = list(zip(table.src.tolist(), table.dst.tolist(), table.cost.tolist(),
                         table.amount.tolist(), table.hop.tolist()))
        assert len(moves) == len(set(moves))
        assert set(moves) == _reference_moves(inst, reach, table)
        assert table.src.tolist() == sorted(table.src.tolist())

    def test_unknown_state_raises(self, wx, wx_reach):
        table = _Table(wx, wx_reach)
        with pytest.raises(KeyError):
            table.state(B, 4.0)
