import math
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsp import (
    FuelGraph,
    Frontier,
    Infeasible,
    Instance,
    Label,
    SolveTimeout,
    build_heuristic,
    compute_reachable_sets,
    expand,
    rfastar_solve,
    validate_solution,
)
from gsp.search import SearchOptions, refuel_amount, refuel_schedule_for_route

from conftest import A, B, O, T, label_key, random_instance, unpruned_solve, worked_example


class TestExpand:
    def test_initial_label_children(self, wx, wx_reach):
        ctx = build_heuristic(wx.graph, wx.goal)
        children = expand(Label(O, 0.0, 0.0, 0), wx_reach, wx, ctx)
        assert sorted(label_key(c) for c in children) == [
            (A, 12.0, 4.0, 1),  # a is pricier than o: fill the tank
            (B, 10.0, 0.0, 1),  # b is cheaper: buy just the hop
        ]

    def test_goal_child_tops_up_exactly(self, wx, wx_reach):
        l1 = Label(A, 12.0, 4.0, 1)
        children = expand(l1, wx_reach, wx, None)
        goal = [c for c in children if c.v == T]
        assert [label_key(c) for c in goal] == [(T, 15.0, 0.0, 2)]

    def test_full_tank_toward_pricier_targets_yields_nothing(self):
        g = FuelGraph.build([1.0, 2.0, 3.0], [(0, 1, 2.0), (0, 2, 3.0)])
        inst = Instance(g, 0, 2, 5.0, 3)
        reach = compute_reachable_sets(g, 5.0)
        # At o with a full tank every fill-up amount is zero, and the goal
        # hop is already covered, so no labels come out.
        children = expand(Label(0, 5.0, 5.0, 1), reach, inst, None)
        assert children == []

    def test_non_refuellable_targets_are_skipped(self):
        g = FuelGraph.build([1.0, math.inf, 2.0], [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 5.0)])
        inst = Instance(g, 0, 2, 5.0, 2)
        reach = compute_reachable_sets(g, 5.0)
        children = expand(Label(0, 0.0, 0.0, 0), reach, inst, None)
        assert {c.v for c in children} == {2}

    def test_unreachable_goal_targets_are_skipped(self):
        # Vertex 2 is a trap with no way back to the goal 0.
        g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)])
        inst = Instance(g, 1, 0, 5.0, 2)
        reach = compute_reachable_sets(g, 5.0)
        ctx = build_heuristic(g, 0)
        assert math.isinf(ctx.d_to_goal[2])
        children = expand(Label(1, 3.0, 0.0, 1), reach, inst, ctx)
        assert children and all(c.v != 2 for c in children)


class TestCheckForPrune:
    """Frontier.dominated, the prune check run on every pop and child."""

    def test_empty_frontier_never_prunes(self, wx):
        frontier = Frontier(wx.graph.price)
        assert not frontier.dominated(Label(O, 0.0, 0.0, 0))

    def test_dominated_label_is_pruned(self, wx):
        frontier = Frontier(wx.graph.price)
        frontier.insert(Label(O, 0.0, 0.0, 0))
        assert frontier.dominated(Label(O, 20.0, 0.0, 2))

    def test_incomparable_labels_survive_both_ways(self, wx):
        frontier = Frontier(wx.graph.price)
        frontier.insert(Label(O, 10.0, 3.0, 1))
        assert not frontier.dominated(Label(O, 9.0, 1.0, 1))
        frontier2 = Frontier(wx.graph.price)
        frontier2.insert(Label(O, 9.0, 1.0, 1))
        assert not frontier2.dominated(Label(O, 10.0, 3.0, 1))

    def test_mode_override_switches_relation(self, wx):
        stored = Label(O, 10.0, 0.0, 1)
        candidate = Label(O, 15.0, 2.0, 2)
        bounded = Frontier(wx.graph.price, unbounded=False)
        scalarized = Frontier(wx.graph.price, unbounded=True)
        bounded.insert(stored)
        scalarized.insert(stored)
        # Bounded: more fuel makes it incomparable. Scalarized at price 2:
        # 10 + 2*2 = 14 <= 15 prunes it.
        assert not bounded.dominated(candidate)
        assert scalarized.dominated(candidate)


class TestSolve:
    def test_worked_example_cost(self, wx):
        result, stats = rfastar_solve(wx)
        assert result.total_cost == 15.0
        assert len(result.stops) == 2
        assert stats.labels_expanded <= stats.labels_generated

    def test_tie_break_prefers_fewer_stops_then_insertion_order(self, wx):
        # Both 15-cost routes tie on f; the pop order (f, fuller tank,
        # fewer stops, first pushed) settles on the route via a.
        result, _ = rfastar_solve(wx)
        assert [v for v, _ in result.route] == [O, A, T]
        assert result.stops == ((O, 6.0), (A, 1.0))

    def test_expected_labels_appear(self, wx, generated_labels):
        rfastar_solve(wx)
        keys = {label_key(l) for l in generated_labels}
        assert (A, 12.0, 4.0, 1) in keys
        assert (B, 10.0, 0.0, 1) in keys

    def test_single_stop_budget_is_infeasible(self):
        result, _ = rfastar_solve(worked_example(k_max=1))
        assert isinstance(result, Infeasible)

    def test_degenerate_start_equals_goal(self, wx):
        inst = Instance(wx.graph, O, O, 6.0, 2)
        result, stats = rfastar_solve(inst)
        assert result.total_cost == 0.0
        assert result.stops == ()
        assert stats.labels_expanded == 0

    def test_solution_replays_to_reported_cost(self, wx, wx_reach):
        result, _ = rfastar_solve(wx, reach=wx_reach)
        assert validate_solution(wx, result, wx_reach) == result.total_cost

    def test_goal_arrival_fuel_is_zero(self, wx):
        result, _ = rfastar_solve(wx)
        assert result.arrival_fuel[-1] == 0.0

    def test_deterministic_across_runs(self):
        inst = random_instance(7)
        first = rfastar_solve(inst)
        second = rfastar_solve(inst)
        assert first[0] == second[0]
        assert first[1].labels_generated == second[1].labels_generated
        assert first[1].labels_pruned == second[1].labels_pruned

    def test_disconnected_goal_is_infeasible(self):
        g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0)], undirected=True)
        result, stats = rfastar_solve(Instance(g, 0, 2, 5.0, 3))
        assert isinstance(result, Infeasible)
        assert stats.labels_expanded == 0  # the start estimate is already infinite


class TestModes:
    @pytest.mark.parametrize("seed", range(12))
    def test_no_heuristic_matches(self, seed):
        inst = random_instance(seed)
        base, _ = rfastar_solve(inst)
        noh, _ = rfastar_solve(inst, SearchOptions(use_heuristic=False))
        if isinstance(base, Infeasible):
            assert isinstance(noh, Infeasible)
        else:
            assert noh.total_cost == base.total_cost

    @pytest.mark.parametrize("seed", range(12))
    def test_dominance_off_matches(self, seed):
        inst = random_instance(seed)
        base, _ = rfastar_solve(inst)
        off = unpruned_solve(inst, compute_reachable_sets(inst.graph, inst.q_max))
        if isinstance(base, Infeasible):
            assert isinstance(off, Infeasible)
        else:
            assert off.total_cost == base.total_cost


@pytest.mark.parametrize("opts", [
    SearchOptions(),
    SearchOptions(use_heuristic=False),
    SearchOptions(unbounded_stops=True),
], ids=["bounded", "no-heuristic", "unbounded"])
def test_past_deadline_times_out_before_expanding(wx, wx_reach, opts):
    with pytest.raises(SolveTimeout) as info:
        rfastar_solve(wx, opts, reach=wx_reach, deadline=perf_counter() - 1.0)
    assert info.value.stats.labels_expanded == 0


class TestUnbounded:
    def test_worked_example_same_optimum(self, wx):
        result, _ = rfastar_solve(wx, SearchOptions(unbounded_stops=True))
        assert result.total_cost == 15.0

    def test_single_edge_graph(self):
        g = FuelGraph.build([2.0, 5.0], [(0, 1, 3.0)])
        result, _ = rfastar_solve(Instance(g, 0, 1, 4.0, 1), SearchOptions(unbounded_stops=True))
        assert result.total_cost == 6.0
        assert result.stops == ((0, 3.0),)

    def test_extra_stops_can_beat_a_tight_budget(self):
        # A chain that needs three stops: with k_max=1 it is infeasible,
        # unbounded it costs the sum of the hops.
        g = FuelGraph.build(
            [1.0, 1.0, 1.0, 1.0],
            [(0, 1, 4.0), (1, 2, 4.0), (2, 3, 4.0)],
        )
        inst = Instance(g, 0, 3, 5.0, 1)
        bounded, _ = rfastar_solve(inst)
        assert isinstance(bounded, Infeasible)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True))
        assert unbounded.total_cost == 12.0
        assert len(unbounded.stops) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bounded_with_stop_budget_n(self, seed):
        inst = random_instance(seed)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True))
        relaxed = Instance(inst.graph, inst.start, inst.goal, inst.q_max, inst.graph.n)
        bounded, _ = rfastar_solve(relaxed)
        if isinstance(unbounded, Infeasible):
            assert isinstance(bounded, Infeasible)
        else:
            assert unbounded.total_cost == bounded.total_cost


class TestInitialFuel:
    def test_coast_straight_to_goal_is_free(self):
        g = FuelGraph.build([1.0, 2.0], [(0, 1, 3.0)])
        result, _ = rfastar_solve(Instance(g, 0, 1, 5.0, 1, q0=4.0))
        assert result.total_cost == 0.0
        assert result.stops == ()

    def test_first_stop_can_be_away_from_start(self):
        # Start sells at 9; coasting to the cheap middle saves money.
        g = FuelGraph.build([9.0, 1.0, 9.0], [(0, 1, 2.0), (1, 2, 4.0)])
        inst = Instance(g, 0, 2, 4.0, 1, q0=2.0)
        result, _ = rfastar_solve(inst)
        assert result.total_cost == 4.0
        assert result.stops == ((1, 4.0),)

    def test_non_refuellable_start_with_fuel(self):
        g = FuelGraph.build([math.inf, 1.0, 2.0], [(0, 1, 2.0), (1, 2, 3.0)])
        inst = Instance(g, 0, 2, 5.0, 1, q0=2.0)
        result, _ = rfastar_solve(inst)
        assert result.total_cost == 3.0

    def test_label_invariants_hold_for_every_generated_label(self, generated_labels):
        for seed in range(8):
            inst = random_instance(seed, with_q0=True)
            generated_labels.clear()
            rfastar_solve(inst)
            for l in generated_labels:
                assert 0.0 <= l.q <= inst.q_max
                assert l.g >= 0.0
                assert 0 <= l.k <= inst.k_max
                # Parent chains terminate at the initial label.
                node, depth = l, 0
                while node.parent is not None:
                    node = node.parent
                    depth += 1
                    assert depth <= inst.k_max + 1
                assert node.v == inst.start


class TestAwkwardEndpoints:
    def test_non_refuellable_goal_is_fine(self):
        g = FuelGraph.build([2.0, 1.0, math.inf],
                            [(0, 1, 3.0), (1, 2, 3.0), (0, 2, 5.0)])
        inst = Instance(g, 0, 2, 5.0, 2)
        reach = compute_reachable_sets(g, 5.0)
        bounded, _ = rfastar_solve(inst, reach=reach)
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)
        from gsp import brute_force_solve, dp_solve

        dp_result, _ = dp_solve(inst, reach=reach)
        oracle = brute_force_solve(inst, reach=reach)
        assert bounded.total_cost == unbounded.total_cost
        assert bounded.total_cost == dp_result.total_cost == oracle.total_cost
        assert validate_solution(inst, bounded, reach) == bounded.total_cost

    def test_non_refuellable_start_with_empty_tank_is_infeasible(self):
        g = FuelGraph.build([math.inf, 1.0], [(0, 1, 2.0)], undirected=True)
        inst = Instance(g, 0, 1, 5.0, 2)
        from gsp import brute_force_solve, dp_solve

        assert isinstance(rfastar_solve(inst)[0], Infeasible)
        assert isinstance(dp_solve(inst)[0], Infeasible)
        assert isinstance(brute_force_solve(inst), Infeasible)


def test_concurrent_solves_share_immutable_structures():
    from concurrent.futures import ThreadPoolExecutor

    inst = random_instance(3)
    reach = compute_reachable_sets(inst.graph, inst.q_max)

    def solve(_):
        return rfastar_solve(inst, reach=reach)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(solve, range(8)))
    costs = {r[0].total_cost for r in results}
    stats = {(r[1].labels_generated, r[1].labels_expanded) for r in results}
    assert len(costs) == 1
    assert len(stats) == 1


class TestLabelBudget:
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_labels_within_polynomial_budget(self, seed):
        inst = random_instance(seed)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        _, stats = rfastar_solve(inst, reach=reach)
        budget = inst.k_max * (reach.edge_count() + inst.graph.n)  # sum of (in-degree + 1)
        assert stats.labels_generated <= budget


@given(
    c_here=st.integers(0, 10).map(float),
    c_next=st.integers(0, 10).map(float),
    q=st.integers(0, 8).map(float),
    d=st.integers(1, 8).map(float),
    into_goal=st.booleans(),
)
def test_refuel_amount_keeps_the_tank_in_range(c_here, c_next, q, d, into_goal):
    q_max = 8.0
    a, arrive = refuel_amount(c_here, c_next, q, d, q_max, into_goal)
    if a > 0.0:
        assert q + a <= q_max
        assert q + a - d == arrive
        assert 0.0 <= arrive <= q_max
    if into_goal and a > 0.0:
        assert arrive == 0.0


def test_refuel_schedule_for_route_matches_hand_values(wx):
    cost, amounts = refuel_schedule_for_route((O, B, T), (5.0, 5.0), wx)
    assert cost == 15.0
    assert amounts == (5.0, 5.0)
    cost, amounts = refuel_schedule_for_route((O, A, T), (2.0, 5.0), wx)
    assert cost == 15.0
    assert amounts == (6.0, 1.0)
