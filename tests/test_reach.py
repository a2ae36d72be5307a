import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp import reach as reach_module
from gsp import search
from gsp import (
    FuelGraph,
    Infeasible,
    Instance,
    brute_force_solve,
    build_mip,
    compute_reachable_sets,
    dp_solve,
    gen_binomial,
    rfastar_solve,
    validate_solution,
)
from gsp.graphio import load_reach_cache, save_reach_cache

from conftest import LONG_ROW_TANK, A, B, O, T, long_row_graph, worked_example, worked_example_graph


def test_worked_example_reach_sets():
    reach = compute_reachable_sets(worked_example_graph(), 6.0)
    assert reach.succ[O] == ((A, 2.0), (B, 5.0))  # t is 7 fuel away, beyond the tank
    assert reach.succ[B] == ((O, 5.0), (T, 5.0))  # a is 7 fuel away via o
    assert reach.succ[A] == ((O, 2.0), (T, 5.0))


def test_capacity_below_smallest_edge_gives_empty_sets():
    reach = compute_reachable_sets(worked_example_graph(), 1.0)
    assert all(not entries for entries in reach.succ)


def test_distance_lookup_and_reverse_index():
    reach = compute_reachable_sets(worked_example_graph(), 6.0)
    assert reach.distance(O, A) == 2.0
    assert reach.distance(O, T) is None
    for u in range(reach.n):
        for v, d in reach.succ[u]:
            assert reach.distance(u, v) == d


def test_no_self_pairs_and_distances_within_tank():
    graph = gen_binomial(12, 0.4, seed=5)
    reach = compute_reachable_sets(graph, 9.0)
    for u in range(reach.n):
        for v, d in reach.succ[u]:
            assert v != u
            assert 0.0 < d <= 9.0


def _floyd_warshall(graph: FuelGraph) -> list[list[float]]:
    n = graph.n
    dist = [[math.inf] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0.0
    for u, v, d in graph.edges:
        dist[u][v] = min(dist[u][v], d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


@pytest.mark.parametrize("seed", range(8))
def test_agrees_with_all_pairs_shortest_paths(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 32)
    graph = gen_binomial(n, 0.3, seed=seed * 17 + 1)
    q_max = float(rng.randint(3, 20))
    reach = compute_reachable_sets(graph, q_max)
    dist = _floyd_warshall(graph)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if dist[u][v] <= q_max:
                assert reach.distance(u, v) == dist[u][v]
            else:
                assert reach.distance(u, v) is None


@pytest.mark.parametrize("seed", range(5))
def test_monotone_in_capacity(seed):
    graph = gen_binomial(10, 0.4, seed=seed + 100)
    small = compute_reachable_sets(graph, 6.0)
    large = compute_reachable_sets(graph, 8.0)
    for u in range(graph.n):
        small_map = dict(small.succ[u])
        large_map = dict(large.succ[u])
        for v, d in small_map.items():
            assert v in large_map
            assert large_map[v] <= d


def test_invalid_capacity():
    for q_max in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            compute_reachable_sets(worked_example_graph(), q_max)


@pytest.mark.parametrize("q0", [0.0, 1.0])
def test_edgeless_reach_graph_makes_dp_infeasible(q0):
    reach = compute_reachable_sets(worked_example_graph(), 1.0)
    assert reach.edge_count() == 0
    result, stats = dp_solve(Instance(worked_example_graph(), O, T, 1.0, 2, q0), reach=reach)
    assert isinstance(result, Infeasible)
    assert stats.dp_states_computed == 2 * (reach.n + (q0 > 0))  # level 0, and q0 at the start


def test_built_arrays_leave_equality_and_repr_alone(tmp_path):
    # Every view kept with a reach graph or a graph, on a graph that takes
    # the Floyd-Warshall build, so that relaxed_cost is an array, and whose
    # rows are long enough for the search's vector pass.
    graph = long_row_graph(3)
    reach = compute_reachable_sets(graph, LONG_ROW_TANK)
    fresh = compute_reachable_sets(long_row_graph(3), LONG_ROW_TANK)
    texts = repr(reach), repr(graph)
    reach.into, reach.table, graph.cheapest, graph.price_array, graph.fuel_to
    assert reach.relaxed_cost is not None
    assert reach.long_rows[0] is not None
    assert {"into", "table", "relaxed_cost", "long_rows"} <= vars(reach).keys()
    assert {"cheapest", "price_array", "fuel_to"} <= vars(graph).keys()
    assert (repr(reach), repr(graph)) == texts
    assert reach == fresh and fresh == reach
    assert graph == fresh.graph and fresh.graph == graph
    path = tmp_path / "reach.json"
    save_reach_cache(reach, graph, path)
    loaded = load_reach_cache(graph, LONG_ROW_TANK, path)
    assert loaded == reach and reach == loaded


class TestLongRows:
    """ReachGraph.long_rows, the label search's arrays of its long rows, is
    built on the first expansion of such a row, shared by every later query
    on the same reach graph and never written by one."""

    @staticmethod
    def _solved(*pairs):
        reach = compute_reachable_sets(long_row_graph(1), LONG_ROW_TANK)
        for s, t in pairs:
            rfastar_solve(Instance(reach.graph, s, t, LONG_ROW_TANK, 3), reach=reach)
        return reach

    def test_built_once_on_the_first_long_expansion(self):
        reach = self._solved()
        assert "long_rows" not in vars(reach)  # not part of the reach build
        rfastar_solve(Instance(reach.graph, 1, 1, LONG_ROW_TANK, 3), reach=reach)
        assert "long_rows" not in vars(reach)  # start == goal: nothing expanded
        rfastar_solve(Instance(reach.graph, 1, 2, LONG_ROW_TANK, 3), reach=reach)
        assert "long_rows" in vars(reach)
        rows = reach.long_rows
        rfastar_solve(Instance(reach.graph, 4, 3, LONG_ROW_TANK, 3), reach=reach)
        assert reach.long_rows is rows

    def test_arrays_hold_the_long_rows_only(self):
        reach = self._solved((1, 2))
        for row, arrays in zip(reach.succ, reach.long_rows):
            if len(row) < search._ROW_MIN:
                assert arrays is None
                continue
            heads, fuels = arrays
            assert (heads.dtype, fuels.dtype) == (np.int64, np.float64)
            assert list(zip(heads.tolist(), fuels.tolist())) == list(row)
        assert reach.long_rows[-1] is None  # the dead end's empty row

    def test_arrays_are_read_only(self):
        reach = self._solved((1, 2))
        assert not any(a.flags.writeable for row in reach.long_rows if row for a in row)
        assert not reach.graph.price_array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            reach.long_rows[0][1][0] = 0.0

    def test_freed_with_the_reach_graph(self):
        reach = self._solved((1, 2))
        ref = weakref.ref(reach.long_rows[0][0])
        gc.disable()
        try:
            del reach
            assert ref() is None
        finally:
            gc.enable()


@st.composite
def _integral_graphs(draw, dense: bool):
    """Directed graphs with integer fuels, on one side of the build rule.

    Arcs are drawn independently per ordered pair, so some vertices reach
    no one or are reached by no one.
    """
    if dense:
        n = draw(st.integers(64, 72))
        p = draw(st.sampled_from([0.1, 0.3, 0.9]))
    else:
        n = draw(st.integers(1, 72))
        p = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.9] if n < 64 else [0.0, 0.02]))
    max_fuel = draw(st.sampled_from([1, 10, 1000]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    arcs = [(u, v, rng.randint(1, max_fuel))
            for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return FuelGraph.build([1.0] * n, arcs)


@pytest.mark.parametrize("dense", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_floyd_warshall_build_equals_dijkstra_build(dense, data):
    graph = data.draw(_integral_graphs(dense))
    assert reach_module._use_floyd_warshall(graph) == dense
    q_max = data.draw(st.sampled_from([0.5, 1.0, 3.0, 16.0, 250.0, 1e6]))  # 0.5: below every fuel
    by_dijkstra = reach_module._build_by_dijkstra(graph, q_max)
    assert reach_module._build_by_floyd_warshall(graph, q_max) == by_dijkstra
    assert compute_reachable_sets(graph, q_max) == by_dijkstra


def test_tanks_on_one_graph_read_one_fuel_matrix(monkeypatch):
    """Every Floyd-Warshall build on a graph, whatever the tank, and the
    heuristic's bound read the one FuelGraph.fuel_to, computed once and
    read-only; each build still equals the Dijkstra build."""
    built = []
    all_pairs = reach_module._all_pairs_fuel
    monkeypatch.setattr(reach_module, "_all_pairs_fuel",
                        lambda graph: built.append(all_pairs(graph)) or built[-1])
    rng = random.Random(5)
    graph = FuelGraph.build([float(rng.randint(1, 10)) for _ in range(64)],
                            [(u, v, rng.randint(1, 10)) for u in range(64) for v in range(64)
                             if u != v and rng.random() < 0.3])
    assert reach_module._use_floyd_warshall(graph)
    reaches = [compute_reachable_sets(graph, tank) for tank in (6.0, 16.0)]
    assert len(built) == 1 and vars(graph)["fuel_to"] is built[0]
    assert not built[0].flags.writeable
    for reach in reaches:
        assert reach.relaxed_cost is not None
        assert reach == reach_module._build_by_dijkstra(graph, reach.q_max)
    assert len(built) == 1


@pytest.mark.parametrize("fuel, takes_floyd_warshall", [
    pytest.param(lambda u, v: 1 + (u * v) % 10, True, id="integral"),
    pytest.param(lambda u, v: 0.5 + (u * v) % 10, True, id="decimal"),
    pytest.param(lambda u, v: 1.0 if u * v else 1.5, True, id="one-decimal"),
    pytest.param(lambda u, v: 2**46 - 1 if u + v == 1 else 1, True, id="sums-below-2**53"),
    pytest.param(lambda u, v: 2**46 if u + v == 1 else 1, False, id="sums-reach-2**53"),
])
def test_only_exact_integral_dense_graphs_take_floyd_warshall(monkeypatch, fuel,
                                                              takes_floyd_warshall):
    """Dense graphs take Floyd-Warshall where its uncut sums stay below
    2**53; a decimal graph takes it on its integral form, fuels in tenths."""
    graph = FuelGraph.build([1.0] * 64, [(u, v, fuel(u, v))
                                         for u in range(64) for v in range(64) if u != v])
    unit = 10 ** graph.decimals[0]
    assert reach_module._use_floyd_warshall(graph.in_units(unit, 1)) == takes_floyd_warshall
    taken = []
    build = reach_module._build_by_floyd_warshall
    monkeypatch.setattr(reach_module, "_build_by_floyd_warshall",
                        lambda *args: taken.append(args) or build(*args))
    reach = compute_reachable_sets(graph, 12.0)
    assert bool(taken) == takes_floyd_warshall
    assert all(g.decimals == (0, 0) and q_max == 12 * unit for g, q_max in taken)
    assert reach == reach_module._build_by_dijkstra(graph, 12.0)  # halves sum exactly


def test_floyd_warshall_build_round_trips_through_the_reach_cache(tmp_path):
    graph = gen_binomial(64, 0.3, seed=3)
    assert reach_module._use_floyd_warshall(graph)
    reach = compute_reachable_sets(graph, 16.0)
    path = tmp_path / "reach.json"
    save_reach_cache(reach, graph, path)
    assert load_reach_cache(graph, 16.0, path) == reach


def test_decimal_prices_and_whole_fuels_run_floyd_warshall_once(monkeypatch):
    """The integral view counts prices in tenths and keeps the fuels, so it
    shares the graph's all-pairs fuel matrix instead of building its own."""
    calls = []
    all_pairs = reach_module._all_pairs_fuel
    monkeypatch.setattr(reach_module, "_all_pairs_fuel",
                        lambda graph: calls.append(graph) or all_pairs(graph))
    base = gen_binomial(64, 0.3, seed=1)
    graph = FuelGraph.build([p + 0.5 for p in base.price], list(base.edges), list(base.names))
    assert reach_module._use_floyd_warshall(graph) and graph.decimals == (0, 1)
    reach = compute_reachable_sets(graph, 16.0)
    for start, goal in [(0, 5), (3, 17), (10, 2)]:
        inst = Instance(graph, start, goal, 16.0, 4)
        cost = rfastar_solve(inst, reach=reach)[0].total_cost
        assert cost == dp_solve(inst, reach=reach)[0].total_cost
    assert calls == [graph]
    assert reach.in_units(1).graph.fuel_to is graph.fuel_to


_TAKES_REACH = {
    "rfastar_solve": lambda inst, reach: rfastar_solve(inst, reach=reach),
    "dp_solve": lambda inst, reach: dp_solve(inst, reach=reach),
    "brute_force_solve": lambda inst, reach: brute_force_solve(inst, reach=reach),
    "build_mip": lambda inst, reach: build_mip(inst, reach=reach),
    "validate_solution": lambda inst, reach: validate_solution(
        inst, rfastar_solve(inst)[0], reach),
}


@pytest.mark.parametrize("mismatch", ["tank", "vertex-count", "same-size-graph"])
@pytest.mark.parametrize("call", sorted(_TAKES_REACH))
def test_reach_graph_for_another_instance_is_rejected(call, mismatch):
    # Arcs built for a tank of 8 let the search buy 7 at o on a tank of 6
    # (cost 14, where the optimum is 15); a reach graph for another vertex
    # count does not describe the instance's graph at all; one built on
    # the same four stations plus an o-t road of fuel 3 gives cost 6 along
    # a road the instance does not have.
    inst = worked_example()  # q_max 6, 4 vertices
    if mismatch == "tank":
        reach = compute_reachable_sets(inst.graph, 8.0)
    elif mismatch == "vertex-count":
        reach = compute_reachable_sets(gen_binomial(5, 0.6, seed=1), inst.q_max)
    else:
        g = inst.graph
        other = FuelGraph.build(list(g.price), [*g.edges, (O, T, 3.0), (T, O, 3.0)], list(g.names))
        reach = compute_reachable_sets(other, inst.q_max)
    with pytest.raises(ValueError, match="reach graph built for"):
        _TAKES_REACH[call](inst, reach)
