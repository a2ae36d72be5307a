import gc
import math
import random
import weakref
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    Label,
    brute_force_solve,
    build_heuristic,
    compute_reachable_sets,
    dp_solve,
    expand,
    gen_binomial,
    rfastar_solve,
    validate_solution,
)
from gsp import reach as reach_module
from gsp import search
from gsp.graphio import load_reach_cache, save_reach_cache
from gsp.heuristic import HeuristicContext, _backward, h_for
from gsp.reach import dijkstra, integral, reach_for
from gsp.search import SearchOptions

from conftest import (
    LONG_ROW_TANK,
    A,
    B,
    O,
    T,
    decimal_price_graph,
    random_instance,
    sparse_long_row_graph,
    worked_example,
)


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
        full = [math.inf] * reach.n
        full[goal] = 0.0
        list(dijkstra(reach.graph.pred, [(0.0, goal)], full))  # fills full
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


def _holds(entry: float, d: float | None) -> bool:
    """entry is NaN where d is None and d bit for bit otherwise."""
    return math.isnan(entry) if d is None else entry.hex() == float(d).hex()


class TestSeededDistArray:
    """Outside the Floyd-Warshall gate, dist_array starts as a copy of dist,
    and every entry stays NaN or equal to dist's."""

    @staticmethod
    def _first_pass(goal: int, monkeypatch):
        graph = sparse_long_row_graph(0)
        reach = compute_reachable_sets(graph, LONG_ROW_TANK)
        assert not reach_module._use_floyd_warshall(graph)
        s = next(v for v in range(1, graph.n - 1) if graph.price[v] < math.inf and v != goal)
        ctx = build_heuristic(reach, goal)
        assert ctx.relaxed_row is None
        before = list(ctx.dist)
        # Per settle() call, a copy of dist_array if it was allocated by then.
        calls: list[np.ndarray | None] = []
        real = HeuristicContext.settle

        def settle(ctx, v):
            calls.append(ctx.__dict__["dist_array"].copy() if "dist_array" in ctx.__dict__ else None)
            return real(ctx, v)

        monkeypatch.setattr(HeuristicContext, "settle", settle)
        run = expand(Label(s, 0.0, 0.0, 0), reach, Instance(graph, s, goal, LONG_ROW_TANK, 4), ctx)
        assert isinstance(run, search._Run)
        return ctx, before, calls, run

    def test_the_first_pass_copies_dist(self, monkeypatch):
        """The dead end is the one vertex outside the goal's column; the pass
        settles it after allocating the array, which then still reads NaN there."""
        dead_end = sparse_long_row_graph(0).n - 1
        ctx, before, calls, run = self._first_pass(1, monkeypatch)
        assert len(calls) == 1 and calls[0] is not None
        assert [v for v, d in enumerate(before) if d is None] == [dead_end]
        assert all(_holds(x, d) for x, d in zip(calls[0].tolist(), before))
        after = ctx.dist_array.tolist()
        assert all(math.isnan(x) or _holds(x, d) for x, d in zip(after, ctx.dist))
        assert after[dead_end] == math.inf
        assert all(_holds(after[v], ctx.dist[v]) for v in run.v.tolist())

    def test_heads_in_the_goals_column_settle_nothing(self, monkeypatch):
        """Every row reaches the dead end, so its column holds every other
        vertex."""
        dead_end = sparse_long_row_graph(0).n - 1
        ctx, before, calls, run = self._first_pass(dead_end, monkeypatch)
        assert None not in before
        assert calls == [] and ctx.settled == 0
        assert all(_holds(x, d) for x, d in zip(ctx.dist_array.tolist(), before))

    @pytest.mark.parametrize("seed", [7, 9, 27])
    def test_vertices_the_coasts_settled_show_in_the_array(self, monkeypatch, seed):
        """With every row on the vector pass, the start's coasts settle
        vertices beyond the goal's column, some of them no head of the first
        pass, before that pass allocates the array."""
        monkeypatch.setattr(search, "_ROW_MIN", 1)
        inst = random_instance(seed, with_q0=True)
        reach = compute_reachable_sets(inst.graph, inst.q_max)
        column = {inst.goal, *reach.into[inst.goal][::2]}
        real, seen = search.h_row, []

        def h_row(ctx, heads, q, price):
            if not seen:
                known = {v: d for v, d in enumerate(ctx.dist) if d is not None}
                seen.append(set(known) - column - set(heads.tolist()))
                h = real(ctx, heads, q, price)
                assert all(_holds(ctx.dist_array.item(v), d) for v, d in known.items())
                return h
            return real(ctx, heads, q, price)

        monkeypatch.setattr(search, "h_row", h_row)
        rfastar_solve(inst, reach=reach)
        assert seen and seen[0]


class TestDecimalInputs:
    """h stays below the oracle's optimum from every state on decimal data,
    both read in the query's integral units, where the solvers run."""

    TANK, STOPS = 10, 3

    def _optima(self, graph, tank, goal):
        """Oracle optimum from (v, q), q = 0, tank / 10, ..., tank, with the
        query's integral view, q and the optimum in its units."""
        for v in range(graph.n):
            for i in range(self.TANK + 1):
                inst = Instance(graph, v, goal, tank, self.STOPS, tank * i / self.TANK)
                sol = brute_force_solve(inst)
                if not isinstance(sol, Infeasible):
                    inst, reach, unit, money = integral(inst, None, inst.k_max)
                    yield reach, v, inst.q0, sol.total_cost, money

    def _check(self, graph, tank, goal):
        for reach, v, q, cost, money in self._optima(graph, tank, goal):
            h = h_for(build_heuristic(reach, goal), v, q)
            assert h.is_integer() and h / money <= cost

    @pytest.mark.parametrize("goal", range(3))
    def test_decimal_prices(self, goal):
        self._check(decimal_price_graph(), self.TANK, goal)

    @pytest.mark.parametrize("goal", range(3))
    def test_decimal_fuels(self, goal):
        """Fuels, tank and fuel held divided by 10."""
        graph = decimal_price_graph()
        tenths = FuelGraph.build(list(graph.price), [(u, v, d / 10) for u, v, d in graph.edges])
        self._check(tenths, self.TANK / 10, goal)


# The price-aware term.  It is taken only on graphs that take the
# Floyd-Warshall reach build, so every graph below has at least 64 vertices.


def _paper_h(ctx, v, q):
    """The paper's estimate alone, as h_for computes it without the price term."""
    d = ctx.d_to_goal[v]
    return math.inf if math.isinf(d) else max((d - q) * ctx.c_min, 0.0)


def _relaxed_reference(graph: FuelGraph, source: int) -> list[float]:
    """Least cost from source to every vertex on an empty tank, with no tank
    and no stop limit: a Dijkstra over (vertex, cheapest price so far)
    states on the graph's own edges, each unit bought at that price."""
    price = graph.price
    best = {(source, price[source]): 0.0}
    heap = [(0.0, source, price[source])]
    cost = [math.inf] * graph.n
    while heap:
        c, v, p = heappop(heap)
        if c > best[v, p]:
            continue
        cost[v] = min(cost[v], c)
        for w, d in graph.succ[v]:
            state = (w, min(p, price[w]))
            if c + p * d < best.get(state, math.inf):
                best[state] = c + p * d
                heappush(heap, (c + p * d, *state))
    return cost


@st.composite
def _priced_dense_graphs(draw):
    """Directed dense graphs of 64-80 vertices with fuels 1..10, prices
    0..10 and a share of stations that sell nothing."""
    n = draw(st.integers(64, 80))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    dry = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arcs = [(u, v, rng.randint(1, 10)) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    prices = [math.inf if rng.random() < dry else float(rng.randint(0, 10)) for _ in range(n)]
    prices[0] = float(rng.randint(0, 10))  # at least one vertex sells
    return FuelGraph.build(prices, arcs)


@settings(max_examples=25, deadline=None)
@given(graph=_priced_dense_graphs(), tank=st.sampled_from([5.0, 16.0, 40.0]),
       seed=st.integers(0, 2**16))
def test_relaxed_cost_equals_the_price_level_dijkstra(graph, tank, seed):
    reach = compute_reachable_sets(graph, tank)
    relaxed = reach.relaxed_cost
    assert relaxed is not None and relaxed.shape == (graph.n, graph.n)
    selling = [v for v in range(graph.n) if math.isfinite(graph.price[v])]
    for source in random.Random(seed).sample(selling, min(3, len(selling))):
        assert relaxed[:, source].tolist() == _relaxed_reference(graph, source)


def _desk_graph(seed: int, n: int = 64, dry: int = 0) -> FuelGraph:
    """A connected G(n, 0.3) with prices 1..10, the first dry vertices
    selling nothing."""
    graph = gen_binomial(n, 0.3, seed=seed)
    prices = [math.inf if v < dry else p for v, p in enumerate(graph.price)]
    return FuelGraph.build(prices, list(graph.edges))


def _queries(graph: FuelGraph, tank: float, count: int, seed: int):
    """count instances on graph, half of them starting with fuel."""
    rng = random.Random(seed)
    for i in range(count):
        start, goal = rng.sample(range(graph.n), 2)
        q0 = float(rng.randint(1, int(tank))) if i % 2 else 0.0
        yield Instance(graph, start, goal, tank, rng.randint(1, 4), q0)


@pytest.mark.parametrize("seed, dry", [(1, 0), (2, 6), (3, 16)])
def test_start_estimate_never_exceeds_the_dp_optimum(seed, dry):
    graph = _desk_graph(seed, n=64 + seed, dry=dry)
    tank = 12.0
    reach = compute_reachable_sets(graph, tank)
    assert reach.relaxed_cost is not None
    tighter = 0
    for inst in _queries(graph, tank, 40, seed):
        ctx = build_heuristic(reach, inst.goal)
        assert ctx.relaxed_row is not None
        h = h_for(ctx, inst.start, inst.q0)
        sol, _ = dp_solve(inst, reach=reach)
        if not isinstance(sol, Infeasible):
            assert h <= sol.total_cost
        tighter += h > _paper_h(ctx, inst.start, inst.q0)
    assert tighter  # the price-aware term decided some of these


@pytest.mark.parametrize("seed, dry", [(4, 0), (5, 8)])
def test_search_and_dp_agree_where_the_bound_is_taken(seed, dry):
    graph = _desk_graph(seed, n=70, dry=dry)
    tank = 10.0
    reach = compute_reachable_sets(graph, tank)
    assert reach.relaxed_cost is not None
    for inst in _queries(graph, tank, 24, seed):
        bounded, _ = rfastar_solve(inst, reach=reach)
        dp, _ = dp_solve(inst, reach=reach)
        blind, _ = rfastar_solve(inst, SearchOptions(use_heuristic=False), reach=reach)
        assert isinstance(bounded, Infeasible) == isinstance(dp, Infeasible)
        if isinstance(dp, Infeasible):
            continue
        assert bounded.total_cost == dp.total_cost == blind.total_cost
        assert validate_solution(inst, bounded, reach) == bounded.total_cost
        unbounded, _ = rfastar_solve(inst, SearchOptions(unbounded_stops=True), reach=reach)
        unbounded_blind, _ = rfastar_solve(
            inst, SearchOptions(use_heuristic=False, unbounded_stops=True), reach=reach)
        assert unbounded.total_cost == unbounded_blind.total_cost <= bounded.total_cost


def _first_priced(graph: FuelGraph, price: float) -> FuelGraph:
    """graph with vertex 0 priced price."""
    return FuelGraph.build([price, *graph.price[1:]], list(graph.edges))


def _directed_dense_graph(seed: int, n: int = 72) -> FuelGraph:
    """A directed G(n, 0.3), each arc's fuel drawn apart from its reverse's,
    with prices 1..10 and the last vertex a dead end with no arcs out; it
    takes the Floyd-Warshall build."""
    rng = random.Random(seed)
    arcs = [(u, v, rng.randint(1, 10)) for u in range(n - 1) for v in range(n)
            if u != v and rng.random() < 0.3]
    return FuelGraph.build([float(rng.randint(1, 10)) for _ in range(n)], arcs)


@pytest.mark.parametrize("seed", [0, 1])
def test_matrix_seeded_d_equals_the_backward_dijkstra(seed):
    """Where the price-aware term is taken, dist and dist_array are the goal's
    row of FuelGraph.fuel_to, known from the start, and equal the backward
    Dijkstra's d bit for bit for every goal and vertex, +inf at the dead end
    included.  The fuel from v to t differs from the fuel from t to v, so a
    read of the goal's column fails."""
    graph = _directed_dense_graph(seed)
    reach = compute_reachable_sets(graph, 12.0)
    assert reach.relaxed_cost is not None
    fuel_to, dead_end = graph.fuel_to, graph.n - 1
    assert (fuel_to != fuel_to.T).sum() > graph.n
    for goal in range(graph.n):
        settled = dict(_backward(goal, reach.into[goal], graph.pred))
        expected = [float(settled.get(v, math.inf)).hex() for v in range(graph.n)]
        assert (expected[dead_end] == math.inf.hex()) == (goal != dead_end)
        ctx = build_heuristic(reach, goal)
        assert [d.hex() for d in ctx.dist] == expected
        assert [d.hex() for d in ctx.dist_array.tolist()] == expected
        assert ctx.d_to_goal == tuple(ctx.dist) and ctx.settled == 0


_GATE_GRAPH = _desk_graph(7)


class TestPriceBoundGate:
    """Where a sum could reach 2**53, or the graph does not take the
    Floyd-Warshall build, the price-aware term is not taken and h is the
    paper's estimate bit for bit.  Decimal inputs take it in the query's
    integral units."""

    TANK = 12.0

    @staticmethod
    def _check_paper_h(reach, goal):
        ctx = build_heuristic(reach, goal)
        assert ctx.relaxed_row is None
        for v in range(reach.n):
            for q in (0.0, 3.0, 7.5):
                assert h_for(ctx, v, q) == _paper_h(ctx, v, q)

    def test_integral_dense_graph_takes_it(self):
        reach = compute_reachable_sets(_GATE_GRAPH, self.TANK)
        assert reach.relaxed_cost is not None
        ctx = build_heuristic(reach, 0)
        assert ctx.relaxed_row.tolist() == reach.relaxed_cost[0].tolist()
        assert any(h_for(ctx, v, 0.0) > _paper_h(ctx, v, 0.0) for v in range(reach.n))

    @pytest.mark.parametrize("graph, tank", [
        pytest.param(_desk_graph(7, n=63), TANK, id="63-vertices"),
        pytest.param(_first_priced(_GATE_GRAPH, 2.0**46), TANK, id="sums-reach-2**53"),
    ])
    def test_graph_outside_the_gate(self, graph, tank):
        reach = compute_reachable_sets(graph, tank)
        assert reach.relaxed_cost is None
        self._check_paper_h(reach, 0)

    @pytest.mark.parametrize("graph, tank", [
        pytest.param(_first_priced(_GATE_GRAPH, 2.5), TANK, id="decimal-price"),
        pytest.param(_GATE_GRAPH, TANK + 0.5, id="decimal-tank"),
    ])
    def test_decimal_graph_takes_it_in_integral_units(self, graph, tank):
        reach = compute_reachable_sets(graph, tank)
        inst = Instance(graph, 5, 0, tank, 3)
        _, view, _, _ = integral(inst, reach, inst.k_max)
        assert view is not reach and view.relaxed_cost is not None
        assert view.graph.decimals == (0, 0) and view.q_max.is_integer()
        sol = rfastar_solve(inst, reach=reach)[0]
        assert sol == dp_solve(inst, reach=reach)[0]
        assert validate_solution(inst, sol, reach) == sol.total_cost

    def test_decimal_initial_fuel(self):
        """A q0 finer than the reach graph's units gets the finer unit's
        view, which takes the term too."""
        reach = compute_reachable_sets(_GATE_GRAPH, self.TANK)
        inst = Instance(reach.graph, 5, 0, self.TANK, 3, 0.5)
        _, view, unit, _ = integral(inst, reach, inst.k_max)
        assert unit == 10 and view is reach.in_units(10) and view.relaxed_cost is not None
        sol = rfastar_solve(inst, reach=reach)[0]
        assert sol == dp_solve(inst, reach=reach)[0]
        assert validate_solution(inst, sol, reach) == sol.total_cost

    def test_second_solve_reuses_the_first_solves_bound(self, monkeypatch):
        """One Floyd-Warshall per graph: the reach build's, which the bound
        and the heuristic's d read again."""
        built = []
        all_pairs = reach_module._all_pairs_fuel
        monkeypatch.setattr(reach_module, "_all_pairs_fuel",
                            lambda graph: built.append(graph) or all_pairs(graph))
        graph = FuelGraph.build(list(_GATE_GRAPH.price), list(_GATE_GRAPH.edges))
        reach = compute_reachable_sets(graph, self.TANK)
        assert built == [graph]  # the reach build's own
        rfastar_solve(Instance(graph, 1, 2, self.TANK, 3), reach=reach)
        relaxed = reach.relaxed_cost
        rfastar_solve(Instance(graph, 3, 4, self.TANK, 3), reach=reach)
        assert reach.relaxed_cost is relaxed
        assert built == [graph]

    def test_reach_cache_gets_an_equal_bound(self, tmp_path):
        graph = _GATE_GRAPH
        reach = compute_reachable_sets(graph, self.TANK)
        path = tmp_path / "reach.json"
        save_reach_cache(reach, graph, path)
        loaded = load_reach_cache(graph, self.TANK, path)
        assert loaded.relaxed_cost is not None
        assert np.array_equal(loaded.relaxed_cost, reach.relaxed_cost)
