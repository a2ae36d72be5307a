import gc
import math
import random
import weakref

import pytest

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    brute_force_solve,
    build_heuristic,
    compute_reachable_sets,
    gen_binomial,
    rfastar_solve,
)
from gsp.heuristic import h_for
from gsp.reach import reach_for, shortest_fuel

from conftest import A, B, O, T, decimal_price_graph, random_instance, worked_example


def test_worked_example_context():
    ctx = build_heuristic(reach_for(worked_example()), T)
    assert ctx.d_to_goal == (7.0, 5.0, 5.0, 0.0)
    assert ctx.c_min == 1.0


def test_h_of_known_labels():
    ctx = build_heuristic(reach_for(worked_example()), T)
    assert h_for(ctx, B, 0.0) == 5.0
    assert h_for(ctx, A, 4.0) == 1.0
    assert h_for(ctx, T, 0.0) == 0.0
    assert h_for(ctx, T, 6.0) == 0.0


def test_unreachable_vertex_gets_infinite_estimate():
    g = FuelGraph.build([1.0, 1.0, 1.0], [(0, 1, 1.0), (2, 1, 1.0)])
    ctx = build_heuristic(compute_reachable_sets(g, 5.0), 0)
    assert math.isinf(ctx.d_to_goal[2])
    assert math.isinf(h_for(ctx, 2, 0.0))


def test_all_non_refuellable_degenerates_to_zero():
    g = FuelGraph.build([math.inf, math.inf, 2.0], [(0, 2, 1.0), (1, 2, 1.0)],
                        undirected=True)
    ctx = build_heuristic(compute_reachable_sets(g, 5.0), 2)
    assert ctx.c_min == 0.0
    assert h_for(ctx, 0, 0.0) == 0.0


@pytest.mark.parametrize("prices", [
    [3.0, 1.0, 1.0, 2.0],  # vertices 1 and 2 tie for the cheapest price
    [1.0, math.inf, math.inf],  # goal 0 leaves only non-refuellable vertices
    [math.inf, 0.0, 5.0, 0.0, math.inf],
    [4.0],
], ids=["tie", "inf-rest", "zero-tie", "n1"])
def test_c_min_is_the_least_non_goal_price(prices):
    n = len(prices)
    graph = FuelGraph.build(prices, [(v, (v + 1) % n, 1.0) for v in range(n)] if n > 1 else [])
    reach = compute_reachable_sets(graph, 1.0)
    for goal in range(n):
        rest = [p for v, p in enumerate(prices) if v != goal]
        expected = min(rest, default=math.inf)
        assert build_heuristic(reach, goal).c_min == (0.0 if math.isinf(expected) else expected)


def test_context_is_freed_by_reference_counting():
    """The resumable search must not hold its context, or every query's
    distances would wait for the cycle collector."""
    reach = compute_reachable_sets(_grid(), GRID_TANK)
    ctx = build_heuristic(reach, 0)
    assert ctx.settle(reach.n - 1) < math.inf and ctx.settled > 0
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_estimate_is_nonnegative_and_monotone_in_fuel():
    ctx = build_heuristic(reach_for(worked_example()), T)
    for v in range(4):
        values = [h_for(ctx, v, q / 2) for q in range(0, 17)]
        assert all(val >= 0.0 for val in values)
        assert values == sorted(values, reverse=True)


def test_surplus_fuel_floors_at_zero():
    ctx = build_heuristic(reach_for(worked_example()), T)
    assert h_for(ctx, B, 6.0) == 0.0  # 5 fuel needed, 6 at hand


class TestCache:
    """Contexts are built afresh for every query; nothing is cached."""

    def test_distinct_goals_get_distinct_contexts(self):
        reach = reach_for(worked_example())
        ctx_t = build_heuristic(reach, T)
        ctx_o = build_heuristic(reach, O)
        assert ctx_t.goal != ctx_o.goal
        assert ctx_t.d_to_goal != ctx_o.d_to_goal

    def test_cache_disabled_rebuilds_every_time(self):
        inst = worked_example()
        _, s1 = rfastar_solve(inst)
        _, s2 = rfastar_solve(inst)
        assert s1.heuristic_build_time > 0.0
        assert s2.heuristic_build_time > 0.0


def _grid(side: int = 10) -> FuelGraph:
    """side x side road grid, vertex r * side + c, hop fuels 2 to 4."""
    rng = random.Random(side)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, float(rng.randint(2, 4))))
            if r + 1 < side:
                edges.append((v, v + side, float(rng.randint(2, 4))))
    prices = [float(rng.randint(1, 9)) for _ in range(side * side)]
    return FuelGraph.build(prices, edges, undirected=True)


GRID_TANK = 4.0  # about one hop: most vertices lie beyond the goal's column


class TestExactness:
    """The column seed plus the resumed backward search give the same
    distances as one full backward Dijkstra from the goal."""

    @staticmethod
    def _check(reach, goal):
        full = shortest_fuel(reach.graph.pred, goal)[0]
        assert build_heuristic(reach, goal).d_to_goal == tuple(full)

    @pytest.mark.parametrize("seeds", [range(0, 250), range(250, 500)], ids=["0-249", "250-499"])
    def test_random_instances_with_their_own_tank(self, seeds):
        for seed in seeds:
            inst = random_instance(seed)
            self._check(reach_for(inst), inst.goal)

    @pytest.mark.parametrize("seeds", [range(0, 250), range(250, 500)], ids=["0-249", "250-499"])
    def test_tank_below_every_edge_leaves_the_column_empty(self, seeds):
        for seed in seeds:
            inst = random_instance(seed)
            tank = min(d for _, _, d in inst.graph.edges) / 2
            reach = compute_reachable_sets(inst.graph, tank)
            assert reach.into[inst.goal] == ()
            self._check(reach, inst.goal)

    def test_grid_with_a_one_hop_tank(self):
        reach = compute_reachable_sets(_grid(), GRID_TANK)
        for goal in range(reach.n):
            self._check(reach, goal)


class TestLaziness:
    def test_complete_reach_settles_nothing(self):
        graph = gen_binomial(40, 0.9, seed=4)
        q_max = max(d for _, _, d in graph.edges)  # one tankful covers every arc
        reach = compute_reachable_sets(graph, q_max)
        assert all(len(row) == graph.n - 1 for row in reach.succ)
        _, stats = rfastar_solve(Instance(graph, 0, 39, q_max, 4), reach=reach)
        assert stats.heuristic_settled == 0

    def test_short_grid_query_settles_part_of_the_graph(self):
        graph = _grid()
        inst = Instance(graph, 0, 3, GRID_TANK, 5)  # three hops along the top row
        reach = reach_for(inst)
        result, stats = rfastar_solve(inst, reach=reach)
        assert not isinstance(result, Infeasible)
        assert 0 < stats.heuristic_settled < graph.n
        beyond_column = graph.n - 1 - len(reach.into[inst.goal]) // 2
        assert stats.heuristic_settled < beyond_column  # the backward search stopped early

    @pytest.mark.parametrize("seed", range(5))
    def test_any_ask_order_gives_the_same_values(self, seed):
        reach = compute_reachable_sets(_grid(), GRID_TANK)
        rng = random.Random(seed)
        goal = rng.randrange(reach.n)
        expected = build_heuristic(reach, goal).d_to_goal
        ctx = build_heuristic(reach, goal)
        asks = [(v, q) for v in range(reach.n) for q in (0.0, 3.0)] * 2
        rng.shuffle(asks)
        for v, q in asks:
            d = expected[v]
            assert h_for(ctx, v, q) == max((d - q) * ctx.c_min, 0.0)
        assert ctx.d_to_goal == expected


class TestDecimalInputs:
    """h stays below the oracle's optimum from every state on decimal data."""

    TANK, STOPS = 10, 3

    def _optima(self, goal):
        """Oracle optimum from (v, q) for integral q on decimal_price_graph."""
        graph = decimal_price_graph()
        for v in range(graph.n):
            for q in range(self.TANK + 1):
                sol = brute_force_solve(Instance(graph, v, goal, self.TANK, self.STOPS, q))
                if not isinstance(sol, Infeasible):
                    yield v, q, sol.total_cost

    @pytest.mark.parametrize("goal", range(3))
    def test_decimal_prices(self, goal):
        reach = compute_reachable_sets(decimal_price_graph(), self.TANK)
        ctx = build_heuristic(reach, goal)
        for v, q, cost in self._optima(goal):
            assert h_for(ctx, v, float(q)) <= cost

    @pytest.mark.parametrize("goal", range(3))
    def test_decimal_fuels(self, goal):
        """Fuels, tank and fuel held divided by 10.

        brute_force_solve takes integral fuels only, so the optimum of the
        decimal copy is the integral one divided by 10.  The two sides are
        equal in exact arithmetic on tight states, where float rounding may
        put h one unit in the last place above the optimum.
        """
        graph = decimal_price_graph()
        tenths = FuelGraph.build(list(graph.price), [(u, v, d / 10) for u, v, d in graph.edges])
        ctx = build_heuristic(compute_reachable_sets(tenths, self.TANK / 10), goal)
        for v, q, cost in self._optima(goal):
            h = h_for(ctx, v, q / 10)
            assert h <= cost / 10 or h == pytest.approx(cost / 10, rel=1e-15, abs=0.0)
